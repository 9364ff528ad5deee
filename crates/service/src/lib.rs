//! # fj-service — concurrent batched cardinality-estimation serving
//!
//! FactorJoin's operational split — heavy offline training, cheap online
//! reads — only pays off when one trained model can answer many optimizer
//! sessions at once. This crate turns the read-only
//! [`factorjoin::FactorJoinModel`] into a multi-threaded service:
//!
//! ```text
//!            train (offline)            swap_model (atomic)
//!  Catalog ────────────────▶ FactorJoinModel ──▶ ModelRegistry
//!                                                     │ Arc<Model> + epoch
//!              submit / submit_batch                  ▼
//!  clients ───────────────▶ BoundedQueue ───▶ worker pool (N threads,
//!              Ticket ◀── one reply/batch ◀── one EstimationScratch each)
//! ```
//!
//! * [`EstimatorService`] owns the worker pool. Each worker holds one
//!   long-lived [`factorjoin::EstimationScratch`], so serving inherits the
//!   core's zero-allocation-per-sub-plan hot path.
//! * Requests flow through a **bounded** MPMC queue ([`queue::BoundedQueue`]):
//!   submission blocks once the queue is full, which is the service's
//!   backpressure. A submitted batch is one queue entry, admitted whole or
//!   not at all; workers claim its queries one at a time and whoever
//!   finishes the last sends the batch's one reply. A lone `submit` is a
//!   batch of one.
//! * [`ModelRegistry`] maps dataset names to `Arc`-shared immutable
//!   models. [`ModelRegistry::swap_model`] atomically publishes a
//!   retrained model without pausing readers; responses carry the serving
//!   model's epoch so clients can tell which model answered.
//! * [`SubplanCache`] sits in front of the workers: a sharded,
//!   memory-bounded map from (model epoch, canonical sub-plan
//!   fingerprint) to the bit-exact `f64` estimate, so an optimizer fleet
//!   replaying the same queries is served without touching the model.
//!   Epoch keying makes hot-swap invalidation free — a swapped model can
//!   never be answered from its predecessor's entries.
//! * [`StatsSnapshot`] reports a shard's counters — requests, sub-plans,
//!   errors, cache hits/misses/evictions, the admission-control counters
//!   ([`StatsSnapshot::rejected`] quota refusals, [`StatsSnapshot::shed`]
//!   queue-full sheds, [`StatsSnapshot::expired`] deadline sheds) — and
//!   the queue depth and its high-water mark. Latency lives in the
//!   exposition's histograms (below), where a scraper computes
//!   percentiles and merges shards bucket by bucket.
//! * [`server::FjServer`] / [`server::FjClient`] put the whole thing on
//!   the network: a length-prefixed binary TCP protocol with multiplexed
//!   pipelined batches, per-dataset shards, epoch-tagged (hot-swap
//!   detectable) bit-identical estimates, and admission control that
//!   rejects explicitly instead of blocking connection threads.
//! * The serving path is observable end to end: every shard's counters,
//!   latency histogram, and per-stage (admission / queue wait /
//!   estimation / encode / socket write) histograms — all owned by the
//!   shard's service — register in a [`fj_obs::MetricsRegistry`],
//!   scrapeable remotely as Prometheus text via
//!   [`server::FjClient::metrics`]; client-minted trace ids
//!   ([`server::FjClient::send_traced`]) tag the server's worst-N
//!   slow-query log so a slow batch can be pinned to its dominant stage.
//!
//! Everything is built on `std` threads and channels — no async runtime.
//!
//! ## Quick example
//!
//! ```no_run
//! use fj_service::EstimatorService;
//! use std::sync::Arc;
//! # fn get_model() -> factorjoin::FactorJoinModel { unimplemented!() }
//! # fn get_queries() -> Vec<fj_query::Query> { unimplemented!() }
//! let model = Arc::new(get_model());
//! let service = EstimatorService::serve("stats", model, 4);
//! let responses = service.submit_batch(&get_queries()).wait_all();
//! for r in responses.iter().flatten() {
//!     println!("epoch {}: {} sub-plans", r.model_epoch, r.estimates.len());
//! }
//! let stats = service.stats();
//! println!("{} requests, {} sub-plans", stats.requests, stats.subplans);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod fault;
pub mod queue;
pub mod registry;
pub mod request;
pub mod server;
pub mod service;
pub mod stats;
mod worker;

pub use cache::SubplanCache;
pub use fault::{CutKind, FaultPlan, FaultProxy, FaultScript, FaultyStream};
pub use registry::{ModelHandle, ModelRegistry};
pub use request::{
    AdmissionRejected, BatchTicket, EstimateRequest, EstimateResponse, RejectReason, ServiceError,
    Ticket,
};
pub use server::{
    BatchOutcome, ClientConfig, FjClient, FjServer, HealthReport, RetryPolicy, ServerConfig,
    ShardHealth, ShardSpec, WireEstimates,
};
pub use service::{EstimatorService, ServiceConfig};
pub use stats::StatsSnapshot;

// Re-exported so embedders can hold the registry a service installs its
// metrics into (and reach the rest of the observability toolkit) without
// a direct fj-obs dependency.
pub use fj_obs;
pub use fj_obs::MetricsRegistry;
