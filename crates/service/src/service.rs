//! The estimator service: a worker pool over a bounded request queue.

use crate::cache::SubplanCache;
use crate::queue::{BoundedQueue, TryPushError};
use crate::registry::ModelRegistry;
use crate::request::{
    AdmissionRejected, BatchTicket, EstimateRequest, RejectReason, Reply, ServiceError, Ticket,
};
use crate::stats::{StatsInner, StatsSnapshot};
use crate::worker::{spawn_workers, Job};
use factorjoin::FactorJoinModel;
use fj_obs::MetricsRegistry;
use fj_query::Query;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads, each holding a long-lived estimation scratch.
    pub workers: usize,
    /// Bounded request-queue capacity — the backpressure limit: submits
    /// block once this many requests are in flight but unclaimed.
    pub queue_capacity: usize,
    /// Dataset served when a request does not name one.
    pub default_dataset: String,
    /// Total capacity (in cached sub-plan estimates) of the sharded
    /// sub-plan estimate cache, rounded up to the cache's set geometry.
    /// `0` disables the cache entirely (the benchmark's uncached arm);
    /// defaults to 65 536 entries ≈ 2 MiB.
    pub subplan_cache_entries: usize,
}

impl ServiceConfig {
    /// A config serving `default_dataset` with `workers` threads and a
    /// 1024-deep queue.
    pub fn new(default_dataset: &str, workers: usize) -> Self {
        ServiceConfig {
            workers,
            queue_capacity: 1024,
            default_dataset: default_dataset.to_string(),
            subplan_cache_entries: 65_536,
        }
    }

    /// Overrides the queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the sub-plan estimate cache capacity; `0` disables the cache
    /// (see [`ServiceConfig::subplan_cache_entries`]).
    pub fn with_subplan_cache_entries(mut self, entries: usize) -> Self {
        self.subplan_cache_entries = entries;
        self
    }
}

/// A running, concurrent cardinality-estimation service (see crate docs).
///
/// Dropping the service shuts it down: the queue closes, workers drain
/// every already-submitted request (their tickets still resolve), then the
/// worker threads are joined.
pub struct EstimatorService {
    queue: Arc<BoundedQueue<Job>>,
    registry: Arc<ModelRegistry>,
    stats: Arc<StatsInner>,
    cache: Option<Arc<SubplanCache>>,
    workers: Vec<JoinHandle<()>>,
}

impl EstimatorService {
    /// Starts the worker pool against an existing (shareable) registry.
    pub fn start(registry: Arc<ModelRegistry>, config: ServiceConfig) -> Self {
        let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
        let stats = Arc::new(StatsInner::new());
        let cache = (config.subplan_cache_entries > 0)
            .then(|| Arc::new(SubplanCache::new(config.subplan_cache_entries)));
        let workers = spawn_workers(
            config.workers,
            config.default_dataset,
            Arc::clone(&queue),
            Arc::clone(&registry),
            Arc::clone(&stats),
            cache.clone(),
        );
        EstimatorService {
            queue,
            registry,
            stats,
            cache,
            workers,
        }
    }

    /// Convenience: a fresh registry holding one model, served by
    /// `workers` threads.
    pub fn serve(dataset: &str, model: Arc<FactorJoinModel>, workers: usize) -> Self {
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(dataset, model);
        Self::start(registry, ServiceConfig::new(dataset, workers))
    }

    /// Submits one query against the default dataset (every connected
    /// sub-plan). Blocks only when the queue is at capacity.
    pub fn submit(&self, query: Query) -> Ticket {
        self.submit_request(EstimateRequest::new(query))
    }

    /// Submits one request. If the service is already shutting down, the
    /// returned ticket resolves with [`ServiceError::SubmitAfterShutdown`]
    /// — the error is never silently dropped.
    pub fn submit_request(&self, request: EstimateRequest) -> Ticket {
        let (tx, rx) = mpsc::channel();
        let job = Job {
            tag: 0,
            index: 0,
            request,
            submitted: Instant::now(),
            reply: tx,
        };
        if let Err(crate::queue::Closed(rejected)) = self.queue.push(job) {
            for job in rejected {
                let _ =
                    job.reply
                        .send((job.tag, job.index, Err(ServiceError::SubmitAfterShutdown)));
            }
        }
        Ticket { rx }
    }

    /// Submits a batch of queries against the default dataset. The whole
    /// batch shares one reply channel and is enqueued under one queue lock
    /// acquisition, so batched submission stays cheap at high request
    /// rates.
    pub fn submit_batch(&self, queries: &[Query]) -> BatchTicket {
        self.submit_requests(queries.iter().cloned().map(EstimateRequest::new).collect())
    }

    /// [`Self::submit_batch`] with per-request control.
    ///
    /// A batch that races shutdown can be **partially** enqueued: the
    /// already-queued prefix is drained and resolves normally, while the
    /// dropped remainder resolves with
    /// [`ServiceError::SubmitAfterShutdown`]. The returned ticket's
    /// [`BatchTicket::accepted`] reports how many requests made it in.
    pub fn submit_requests(&self, requests: Vec<EstimateRequest>) -> BatchTicket {
        let (tx, rx) = mpsc::channel::<Reply>();
        let expected = requests.len();
        let jobs = Self::make_jobs(requests, 0, &tx);
        let accepted = match self.queue.push_many(jobs) {
            Ok(()) => expected,
            Err(crate::queue::Closed(rejected)) => {
                let accepted = expected - rejected.len();
                for job in rejected {
                    let _ = job.reply.send((
                        job.tag,
                        job.index,
                        Err(ServiceError::SubmitAfterShutdown),
                    ));
                }
                accepted
            }
        };
        BatchTicket {
            rx,
            expected,
            accepted,
        }
    }

    /// Non-blocking, all-or-nothing batch submission — the admission-
    /// control path for serving tiers that must never stall a network
    /// thread. The batch is enqueued only when the queue is open and has
    /// room for all of it; otherwise it comes back in
    /// [`AdmissionRejected`] (reason [`RejectReason::Overloaded`] on a
    /// full queue — counted as shed load in [`StatsSnapshot::shed`] — or
    /// [`RejectReason::ShuttingDown`] on a closed one).
    pub fn offer_requests(
        &self,
        requests: Vec<EstimateRequest>,
    ) -> Result<BatchTicket, AdmissionRejected> {
        let (tx, rx) = mpsc::channel::<Reply>();
        let expected = requests.len();
        self.offer_jobs(requests, 0, &tx)?;
        Ok(BatchTicket {
            rx,
            expected,
            accepted: expected,
        })
    }

    /// [`Self::offer_requests`] routing replies to a caller-owned channel,
    /// tagged so interleaved batches can share it (the network tier's
    /// submission path: one reply channel per connection, tag = wire
    /// request id).
    pub(crate) fn offer_tagged(
        &self,
        requests: Vec<EstimateRequest>,
        tag: u64,
        reply: &mpsc::Sender<Reply>,
    ) -> Result<(), AdmissionRejected> {
        self.offer_jobs(requests, tag, reply)
    }

    fn make_jobs(
        requests: Vec<EstimateRequest>,
        tag: u64,
        reply: &mpsc::Sender<Reply>,
    ) -> Vec<Job> {
        let submitted = Instant::now();
        requests
            .into_iter()
            .enumerate()
            .map(|(index, request)| Job {
                tag,
                index,
                request,
                submitted,
                reply: reply.clone(),
            })
            .collect()
    }

    fn offer_jobs(
        &self,
        requests: Vec<EstimateRequest>,
        tag: u64,
        reply: &mpsc::Sender<Reply>,
    ) -> Result<(), AdmissionRejected> {
        let count = requests.len();
        let jobs = Self::make_jobs(requests, tag, reply);
        match self.queue.try_push_many(jobs) {
            Ok(()) => Ok(()),
            Err(err) => {
                let (reason, jobs) = match err {
                    TryPushError::Full(jobs) => {
                        self.stats.record_shed(count);
                        (RejectReason::Overloaded, jobs)
                    }
                    TryPushError::Closed(jobs) => (RejectReason::ShuttingDown, jobs),
                };
                Err(AdmissionRejected {
                    reason,
                    requests: jobs.into_iter().map(|j| j.request).collect(),
                })
            }
        }
    }

    /// Counts an admission-control rejection (per-client quota) in
    /// [`StatsSnapshot::rejected`]. Called by serving tiers layered on
    /// top — quota policy lives with the connection state they own, but
    /// the counter belongs to the service the client was refused.
    pub fn record_admission_rejection(&self) {
        self.stats.record_rejected();
    }

    /// The shared registry (publish/swap models through this).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The sub-plan estimate cache, or `None` when disabled
    /// ([`ServiceConfig::subplan_cache_entries`] = 0).
    pub fn subplan_cache(&self) -> Option<&Arc<SubplanCache>> {
        self.cache.as_ref()
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Requests queued but not yet picked up by a worker (a health-probe
    /// load signal).
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The bounded queue's capacity.
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Register this service's counters, latency/stage histograms, and a
    /// live queue-depth gauge into `registry`, labelled with `dataset`.
    /// Entries are closure-backed `Arc` clones: the hot path records into
    /// the same atomics it always did and never touches the registry.
    pub fn install_metrics(&self, registry: &MetricsRegistry, dataset: &str) {
        self.stats.install_metrics(registry, dataset);
        let queue = Arc::clone(&self.queue);
        registry.register_gauge_fn(
            "fj_queue_depth",
            "Requests queued but not yet picked up by a worker.",
            &[("dataset", dataset)],
            move || queue.len() as f64,
        );
    }

    /// The shard's raw stats, for cross-shard merging ([`crate::FjServer::stats_merged`]).
    pub(crate) fn stats_inner(&self) -> &Arc<StatsInner> {
        &self.stats
    }

    /// Queue depth and high-water mark under one lock, for snapshots.
    pub(crate) fn queue_depth_and_high_water(&self) -> (usize, usize) {
        self.queue.depth_and_high_water()
    }

    /// Service statistics since start (or the last [`Self::reset_stats`]).
    pub fn stats(&self) -> StatsSnapshot {
        let (depth, high_water) = self.queue.depth_and_high_water();
        self.stats.snapshot(depth, high_water)
    }

    /// Clears counters/latencies, restarts the measurement window, and
    /// resets the queue high-water mark (between benchmark warm-up and the
    /// timed run).
    pub fn reset_stats(&self) {
        self.stats.reset();
        self.queue.reset_high_water();
    }

    /// Shuts down: rejects new submits, serves everything already queued,
    /// joins the workers. (`Drop` does the same; this form is explicit.)
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for EstimatorService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ServiceError;
    use factorjoin::{BaseEstimatorKind, BinBudget, FactorJoinConfig};
    use fj_datagen::{stats_catalog, stats_ceb_workload, StatsConfig, WorkloadConfig};

    fn tiny_setup() -> (Arc<FactorJoinModel>, Vec<Query>) {
        let cat = stats_catalog(&StatsConfig {
            scale: 0.02,
            ..Default::default()
        });
        let model = FactorJoinModel::train(
            &cat,
            FactorJoinConfig {
                bin_budget: BinBudget::Uniform(10),
                estimator: BaseEstimatorKind::TrueScan,
                ..Default::default()
            },
        );
        let wl = stats_ceb_workload(&cat, &WorkloadConfig::tiny(3));
        (Arc::new(model), wl)
    }

    #[test]
    fn serves_single_and_batch() {
        let (model, wl) = tiny_setup();
        let expected: Vec<_> = wl.iter().map(|q| model.estimate_subplans(q, 1)).collect();
        let service = EstimatorService::serve("stats", Arc::clone(&model), 2);

        let got = service.submit(wl[0].clone()).wait().unwrap();
        assert_eq!(got.estimates, expected[0]);
        assert_eq!(got.dataset, "stats");
        assert!(got.worker < 2);

        let batch = service.submit_batch(&wl).wait_all();
        assert_eq!(batch.len(), wl.len());
        for (resp, exp) in batch.iter().zip(&expected) {
            assert_eq!(resp.as_ref().unwrap().estimates, *exp);
        }
        let snap = service.stats();
        assert_eq!(snap.requests as usize, wl.len() + 1);
        assert!(snap.subplans > 0);
        assert_eq!(snap.errors, 0);
    }

    #[test]
    fn unknown_dataset_errors() {
        let (model, wl) = tiny_setup();
        let service = EstimatorService::serve("stats", model, 1);
        let err = service
            .submit_request(EstimateRequest::new(wl[0].clone()).on_dataset("nope"))
            .wait()
            .unwrap_err();
        assert_eq!(err, ServiceError::UnknownDataset("nope".into()));
        assert_eq!(service.stats().errors, 1);
    }

    #[test]
    fn min_size_filters_subplans() {
        let (model, wl) = tiny_setup();
        let service = EstimatorService::serve("stats", Arc::clone(&model), 1);
        let resp = service
            .submit_request(EstimateRequest::new(wl[0].clone()).with_min_size(2))
            .wait()
            .unwrap();
        assert_eq!(resp.estimates, model.estimate_subplans(&wl[0], 2));
        assert!(resp.estimates.iter().all(|(m, _)| m.count_ones() >= 2));
    }

    /// A worker-less service (private constructor): jobs stay queued until
    /// the test drains them, making submit/close races deterministic.
    fn stalled_service(queue_capacity: usize) -> EstimatorService {
        EstimatorService {
            queue: Arc::new(BoundedQueue::new(queue_capacity)),
            registry: Arc::new(ModelRegistry::new()),
            stats: Arc::new(StatsInner::new()),
            cache: None,
            workers: Vec::new(),
        }
    }

    #[test]
    fn submit_after_close_resolves_with_distinct_error() {
        // Regression: the Closed error from the queue used to be discarded
        // (`let _ = self.queue.push(job)`), leaving the caller with only a
        // generic Shutdown after an arbitrary wait. Submission against a
        // closed queue must resolve immediately and distinctly.
        let (model, wl) = tiny_setup();
        let service = stalled_service(4);
        service.registry.publish("stats", model);
        service.queue.close();

        let err = service.submit(wl[0].clone()).wait().unwrap_err();
        assert_eq!(err, ServiceError::SubmitAfterShutdown);

        let ticket = service.submit_batch(&wl);
        assert_eq!(ticket.accepted(), 0, "nothing was enqueued");
        for result in ticket.wait_all() {
            assert_eq!(result.unwrap_err(), ServiceError::SubmitAfterShutdown);
        }
    }

    #[test]
    fn close_during_submit_batch_reports_partial_acceptance() {
        // Regression: a batch that races shutdown is *partially* enqueued
        // — push_many blocks on a full queue, close() wakes it, and the
        // remainder comes back Closed. The dropped remainder must resolve
        // with SubmitAfterShutdown (not hang, not generic Shutdown) and
        // accepted() must report the enqueued prefix.
        let (model, wl) = tiny_setup();
        let service = stalled_service(1); // room for exactly one job
        service.registry.publish("stats", model);

        let requests: Vec<EstimateRequest> = wl.iter().cloned().map(EstimateRequest::new).collect();
        let batch_len = requests.len();
        assert!(batch_len >= 2, "need a batch larger than the queue");

        let ticket = std::thread::scope(|s| {
            let submitter = s.spawn(|| service.submit_requests(requests));
            // Wait for the submitter to fill the queue and block for room,
            // then close — the exact mid-batch shutdown race.
            while service.queue.is_empty() {
                std::thread::yield_now();
            }
            service.queue.close();
            submitter.join().expect("submitter thread")
        });
        assert_eq!(ticket.len(), batch_len);
        assert_eq!(ticket.accepted(), 1, "one job fit before the close");

        // Drain the accepted job as a worker would, so its slot resolves.
        let job = service.queue.pop().expect("the accepted job is queued");
        assert_eq!(job.index, 0, "the enqueued prefix comes first");
        let handle = service.registry.get("stats").expect("published");
        let estimates = handle.model.estimate_subplans(&job.request.query, 1);
        let response = crate::request::EstimateResponse {
            dataset: "stats".to_string(),
            model_epoch: handle.epoch,
            worker: 0,
            queue_wait: std::time::Duration::ZERO,
            estimate_time: std::time::Duration::ZERO,
            estimates,
        };
        job.reply
            .send((job.tag, job.index, Ok(response)))
            .expect("ticket alive");

        let results = ticket.wait_all();
        assert!(results[0].is_ok(), "the accepted job resolves normally");
        for result in &results[1..] {
            assert_eq!(
                *result.as_ref().unwrap_err(),
                ServiceError::SubmitAfterShutdown,
                "dropped remainder resolves with the distinct submit error"
            );
        }
    }

    #[test]
    fn offer_requests_sheds_on_full_queue_and_counts_it() {
        let (model, wl) = tiny_setup();
        let service = stalled_service(2); // no workers: queue never drains
        service.registry.publish("stats", Arc::clone(&model));
        let reqs = |n: usize| -> Vec<EstimateRequest> {
            (0..n)
                .map(|i| EstimateRequest::new(wl[i % wl.len()].clone()))
                .collect()
        };
        // A batch larger than capacity is always shed, all-or-nothing.
        let err = service.offer_requests(reqs(3)).unwrap_err();
        assert_eq!(err.reason, RejectReason::Overloaded);
        assert_eq!(err.requests.len(), 3, "the batch comes back for retry");
        assert_eq!(service.queue.len(), 0, "nothing partially enqueued");
        // A fitting batch is accepted.
        let ticket = service.offer_requests(reqs(2)).expect("fits");
        assert_eq!(ticket.accepted(), 2);
        // Now the queue is full: even a single request is shed.
        let err = service.offer_requests(reqs(1)).unwrap_err();
        assert_eq!(err.reason, RejectReason::Overloaded);
        // Quota rejections recorded through the public hook.
        service.record_admission_rejection();
        let snap = service.stats();
        assert_eq!(snap.shed, 4, "3 + 1 shed requests counted");
        assert_eq!(snap.rejected, 1);
        // Closed queue refuses with ShuttingDown instead.
        service.queue.close();
        let err = service.offer_requests(reqs(1)).unwrap_err();
        assert_eq!(err.reason, RejectReason::ShuttingDown);
    }

    #[test]
    fn shutdown_serves_queued_then_rejects() {
        let (model, wl) = tiny_setup();
        let service = EstimatorService::serve("stats", Arc::clone(&model), 1);
        let ticket = service.submit(wl[0].clone());
        service.shutdown();
        // Submitted before shutdown → still served.
        assert!(ticket.wait().is_ok());
        // (The service is consumed by shutdown; nothing further to submit.)
    }

    #[test]
    fn ticket_after_drop_reports_shutdown() {
        let (model, wl) = tiny_setup();
        let expected = model.estimate_subplans(&wl[0], 1);
        let ticket;
        {
            let service = EstimatorService::serve("stats", Arc::clone(&model), 1);
            ticket = service.submit(wl[0].clone());
            // Drop closes the queue but drains queued work first.
        }
        match ticket.wait() {
            Ok(resp) => assert_eq!(resp.estimates, expected),
            Err(e) => panic!("queued request should have been drained: {e}"),
        }
    }
}
