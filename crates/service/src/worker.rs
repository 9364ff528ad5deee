//! Worker threads and the unit of work they share: the [`Batch`].
//!
//! A submitted batch is **one** queue entry. Workers claim its queries one
//! at a time under the queue lock (so idle workers share a large batch),
//! resolve each into the batch's result slots, and whichever worker fills
//! the last slot sends the batch's single reply. A lone `submit` is a
//! batch of one over the same path.
//!
//! Per batch a worker works on it resolves, once, the [`ModelHandle`] that
//! serves the service's dataset ([`Resolved`]); per query it checks the
//! deadline, estimates under `catch_unwind` through the sub-plan cache,
//! and records stats.

use crate::cache::{SubplanCache, FINGERPRINT_SEED};
use crate::queue::BoundedQueue;
use crate::registry::{ModelHandle, ModelRegistry};
use crate::request::{EstimateRequest, EstimateResponse, Reply, ServiceError};
use crate::stats::StatsInner;
use factorjoin::EstimationScratch;
use fj_query::{connected_subplans_into, query_fingerprint, QueryError, QueryGraph, SubplanMask};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// A queued unit of work: the submitted requests, their one reply route,
/// and the slots their results collect in. (The claim cursor lives in the
/// queue entry, under the queue lock.)
pub(crate) struct Batch {
    /// Multiplexing tag (0 for plain submits; wire request id for the
    /// network tier, whose connections share one reply channel).
    tag: u64,
    requests: Vec<EstimateRequest>,
    submitted: Instant,
    reply: mpsc::Sender<Reply>,
    slots: Mutex<Slots>,
}

struct Slots {
    /// In submission order; a slot reads [`ServiceError::Shutdown`] until
    /// its query is resolved.
    results: Vec<Result<EstimateResponse, ServiceError>>,
    unresolved: usize,
}

impl Batch {
    pub(crate) fn new(
        tag: u64,
        requests: Vec<EstimateRequest>,
        reply: mpsc::Sender<Reply>,
    ) -> Self {
        let slots = Slots {
            results: requests
                .iter()
                .map(|_| Err(ServiceError::Shutdown))
                .collect(),
            unresolved: requests.len(),
        };
        Batch {
            tag,
            requests,
            submitted: Instant::now(),
            reply,
            slots: Mutex::new(slots),
        }
    }

    /// Number of queries — the units this batch occupies in the queue.
    pub(crate) fn len(&self) -> usize {
        self.requests.len()
    }

    /// The requests back, for a batch refused admission.
    pub(crate) fn into_requests(self) -> Vec<EstimateRequest> {
        self.requests
    }

    /// Resolves every slot with `error`: the batch was never admitted.
    pub(crate) fn refuse(&self, error: &ServiceError) {
        for index in 0..self.len() {
            self.resolve(index, Err(error.clone()));
        }
    }

    /// Stores query `index`'s result; the call that resolves the batch's
    /// last open slot sends its one reply.
    fn resolve(&self, index: usize, result: Result<EstimateResponse, ServiceError>) {
        let mut slots = self.slots.lock().expect("batch slots");
        slots.results[index] = result;
        slots.unresolved -= 1;
        if slots.unresolved > 0 {
            return;
        }
        let results = std::mem::take(&mut slots.results);
        drop(slots);
        // A dropped ticket just means the client stopped waiting.
        let _ = self.reply.send((self.tag, results));
    }
}

/// What a worker resolves once per batch it works on instead of per query:
/// the model serving the service's dataset (`None` inside when the
/// registry lacks it). Holding the handle for the batch is also what keeps
/// one worker's replies for one batch on a single epoch across a hot-swap.
#[derive(Default)]
pub(crate) struct Resolved(Option<Option<ModelHandle>>);

/// What a service's submit side and its workers share.
pub(crate) struct Pool {
    /// The dataset every request is served from (shared into every
    /// response).
    pub dataset: Arc<str>,
    /// Its own `Arc` so the queue-depth gauge can outlive the service
    /// without pinning the rest of the pool.
    pub queue: Arc<BoundedQueue<Batch>>,
    pub registry: Arc<ModelRegistry>,
    pub stats: Arc<StatsInner>,
    pub cache: Option<Arc<SubplanCache>>,
}

/// One worker thread's state.
///
/// The [`Buffers`] live as long as the worker — the scratch-reuse contract
/// of `SubplanEstimator` carried across requests *and* across hot-swapped
/// models (they hold only buffers; every request rebuilds its factors from
/// the model it was served by, so reusing them under a different model is
/// sound).
pub(crate) struct Worker {
    id: usize,
    pool: Arc<Pool>,
    buffers: Buffers,
}

/// What a worker reuses from request to request: the estimator's scratch
/// and the sub-plan list of the request being served.
#[derive(Default)]
struct Buffers {
    estimation: EstimationScratch,
    masks: Vec<SubplanMask>,
}

/// Spawns `count` workers draining `pool.queue` until it is closed.
pub(crate) fn spawn_workers(count: usize, pool: &Arc<Pool>) -> Vec<JoinHandle<()>> {
    (0..count.max(1))
        .map(|id| {
            let worker = Worker::new(id, pool);
            std::thread::Builder::new()
                .name(format!("fj-worker-{id}"))
                .spawn(move || worker.run())
                .expect("spawn worker thread")
        })
        .collect()
}

impl Worker {
    pub(crate) fn new(id: usize, pool: &Arc<Pool>) -> Self {
        Worker {
            id,
            pool: Arc::clone(pool),
            buffers: Buffers::default(),
        }
    }

    fn run(mut self) {
        while let Some((batch, first)) = self.pool.queue.claim() {
            // Scoped to the batch, so an idle worker pins no model.
            let mut resolved = Resolved::default();
            let mut next = Some(first);
            while let Some(index) = next {
                self.serve(&batch, index, &mut resolved);
                next = self.pool.queue.claim_more(&batch);
            }
        }
    }

    /// Serves the claimed query `index` of `batch` into its slot.
    pub(crate) fn serve(&mut self, batch: &Batch, index: usize, resolved: &mut Resolved) {
        let request = &batch.requests[index];
        let picked_up = Instant::now();
        // Shed already-expired work before touching the model: the caller
        // stopped waiting, so estimating would only steal CPU from live
        // requests. The slot still resolves (with DeadlineExceeded) so
        // nothing upstream hangs.
        if request
            .deadline
            .is_some_and(|deadline| picked_up >= deadline)
        {
            self.pool.stats.record_expired();
            batch.resolve(index, Err(ServiceError::DeadlineExceeded));
            return;
        }
        let pool = &*self.pool;
        let handle = resolved
            .0
            .get_or_insert_with(|| pool.registry.get(&pool.dataset));
        let Some(handle) = handle else {
            pool.stats.record_error();
            let error = ServiceError::UnknownDataset(pool.dataset.to_string());
            batch.resolve(index, Err(error));
            return;
        };
        // Contain estimator panics: the worker's buffers are only buffers,
        // but a panic can leave them in an arbitrary state, so they are
        // rebuilt. AssertUnwindSafe is sound because nothing else aliases
        // them and the model is read-only.
        let buffers = &mut self.buffers;
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            estimate_through_cache(handle, buffers, request, &pool.stats, pool.cache.as_deref())
        }));
        let result = match attempt {
            Ok(Err(error)) => {
                pool.stats.record_error();
                Err(ServiceError::InvalidQuery(error))
            }
            Ok(Ok(estimates)) => {
                let response = EstimateResponse {
                    dataset: Arc::clone(&pool.dataset),
                    model_epoch: handle.epoch,
                    worker: self.id,
                    queue_wait: picked_up.duration_since(batch.submitted),
                    estimate_time: picked_up.elapsed(),
                    estimates,
                };
                pool.stats.record_success(
                    response.estimates.len(),
                    response.queue_wait,
                    response.estimate_time,
                );
                Ok(response)
            }
            Err(payload) => {
                self.buffers = Buffers::default();
                pool.stats.record_worker_panic();
                Err(ServiceError::WorkerPanicked(panic_message(&payload)))
            }
        };
        batch.resolve(index, result);
    }
}

/// Serve the request's sub-plan estimates, consulting the sub-plan cache
/// when one is configured, or refuse a query the model cannot serve.
///
/// The read is **all-or-nothing**: the response is assembled from the
/// cache only when *every* sub-plan of the request hits under the
/// handle's epoch — a partial assembly would interleave cached bits with
/// a fresh computation for no latency win, and the all-or-nothing rule
/// keeps the hit/miss accounting a clean per-request split. On any miss
/// the query is checked against the model
/// ([`factorjoin::FactorJoinModel::check_query`]), analysed once, computed
/// by the model (the uncached path, unchanged) and every `(mask,
/// estimate)` pair is inserted, so the next repeat hits. A hit needs no
/// check: its keys were computed, so checked, under the same model.
///
/// Every key of the request is `(handle.epoch, mask, query fingerprint)`:
/// * equal keys mean the same deterministic fold over the same inputs, so
///   a hit reproduces the miss exactly (`f64::to_bits` round-trip, no
///   arithmetic). The masks probed are the suffix of the enumeration with
///   at least `min_size` aliases — exactly what `estimate_analyzed`
///   returns, in its order (asserted in debug builds).
/// * Registry epochs are globally unique and monotonic, so keying on
///   `handle.epoch` makes entries from a superseded model unreachable
///   the instant `swap_model`/`apply_insert` publishes: a request is
///   served entirely by the model *and cache generation* it resolved.
fn estimate_through_cache(
    handle: &ModelHandle,
    buffers: &mut Buffers,
    request: &EstimateRequest,
    stats: &StatsInner,
    cache: Option<&SubplanCache>,
) -> Result<Vec<(SubplanMask, f64)>, QueryError> {
    let Buffers { estimation, masks } = buffers;
    let query = &request.query;
    connected_subplans_into(query, 1, masks);
    let reported = &masks[masks.partition_point(|m| m.count_ones() < request.min_size)..];
    let keyed = cache.map(|cache| (cache, query_fingerprint(query, FINGERPRINT_SEED)));
    if let Some((cache, fp)) = keyed {
        let mut cached = Vec::with_capacity(reported.len());
        for &mask in reported {
            match cache.get(handle.epoch, mask, fp) {
                Some(bits) => cached.push((mask, f64::from_bits(bits))),
                None => break,
            }
        }
        if !cached.is_empty() && cached.len() == reported.len() {
            stats.record_cache_hits(cached.len());
            return Ok(cached);
        }
    }
    handle.model.check_query(query)?;
    let graph = QueryGraph::analyze(query);
    let model = &handle.model;
    let estimates = model.estimate_analyzed(estimation, query, &graph, masks, request.min_size);
    if let Some((cache, fp)) = keyed {
        debug_assert!(
            estimates
                .iter()
                .map(|&(mask, _)| mask)
                .eq(reported.iter().copied()),
            "probed masks must mirror estimate_analyzed"
        );
        let mut evictions = 0usize;
        for &(mask, estimate) in &estimates {
            if cache.insert(handle.epoch, mask, fp, estimate.to_bits()) {
                evictions += 1;
            }
        }
        stats.record_cache_misses(estimates.len(), evictions);
    }
    Ok(estimates)
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}
