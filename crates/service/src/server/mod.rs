//! The network serving tier: [`FjServer`] / [`FjClient`] over a
//! length-prefixed binary TCP protocol (see [`wire`]).
//!
//! Design in one breath: per-dataset shards (own registry, own
//! [`crate::EstimatorService`] worker pool, own bounded queue), one
//! reader plus one collector thread per connection, client-chosen
//! `request_id`s multiplexing pipelined batches, and admission control
//! that **rejects
//! instead of blocking** — a full shard queue sheds the batch
//! ([`crate::request::RejectReason::Overloaded`]), a client past its
//! in-flight quota is refused
//! ([`crate::request::RejectReason::QuotaExceeded`]), and both show up in
//! [`crate::StatsSnapshot`]. Estimates cross the wire bit-identical
//! (`f64::to_bits`), epoch-tagged so clients detect model hot-swaps
//! mid-flight.

mod client;
mod retry;
#[allow(clippy::module_inception)]
mod server;
pub mod wire;

pub use client::{ClientConfig, FjClient};
pub use retry::RetryPolicy;
pub use server::{FjServer, ServerConfig, ShardSpec};
pub use wire::{
    BatchOutcome, HealthReport, ShardHealth, WireError, WireEstimates, PROTOCOL_VERSION,
};
