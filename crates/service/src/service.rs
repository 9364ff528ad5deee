//! The estimator service: a worker pool over a bounded request queue.

use crate::cache::SubplanCache;
use crate::queue::{BoundedQueue, Closed, TryPushError};
use crate::registry::ModelRegistry;
use crate::request::{
    AdmissionRejected, BatchTicket, EstimateRequest, RejectReason, Reply, ServiceError, Ticket,
};
use crate::stats::{StatsInner, StatsSnapshot};
use crate::worker::{spawn_workers, Batch, Pool};
use factorjoin::FactorJoinModel;
use fj_obs::MetricsRegistry;
use fj_query::Query;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads, each holding a long-lived estimation scratch.
    pub workers: usize,
    /// Bounded request-queue capacity in queries — the backpressure limit:
    /// a blocking submit waits while its batch would take the unclaimed
    /// queries past this (unless the queue is empty), a non-blocking one
    /// is shed.
    pub queue_capacity: usize,
    /// The dataset the service serves: the registry entry every request
    /// is answered from.
    pub dataset: String,
    /// Total capacity (in cached sub-plan estimates) of the sharded
    /// sub-plan estimate cache, rounded up to the cache's set geometry.
    /// `0` disables the cache entirely (the benchmark's uncached arm);
    /// defaults to 65 536 entries ≈ 2 MiB.
    pub subplan_cache_entries: usize,
}

impl ServiceConfig {
    /// A config serving `dataset` with `workers` threads and a
    /// 1024-deep queue.
    pub fn new(dataset: &str, workers: usize) -> Self {
        ServiceConfig {
            workers,
            queue_capacity: 1024,
            dataset: dataset.to_string(),
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
    pool: Arc<Pool>,
    workers: Vec<JoinHandle<()>>,
}

impl EstimatorService {
    /// Starts the worker pool against an existing (shareable) registry.
    pub fn start(registry: Arc<ModelRegistry>, config: ServiceConfig) -> Self {
        let pool = Arc::new(Pool {
            dataset: Arc::from(config.dataset),
            queue: Arc::new(BoundedQueue::new(config.queue_capacity)),
            registry,
            stats: Arc::new(StatsInner::new()),
            cache: (config.subplan_cache_entries > 0)
                .then(|| Arc::new(SubplanCache::new(config.subplan_cache_entries))),
        });
        let workers = spawn_workers(config.workers, &pool);
        EstimatorService { pool, workers }
    }

    /// Convenience: a fresh registry holding one model, served by
    /// `workers` threads.
    pub fn serve(dataset: &str, model: Arc<FactorJoinModel>, workers: usize) -> Self {
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(dataset, model);
        Self::start(registry, ServiceConfig::new(dataset, workers))
    }

    /// Submits one query (every connected sub-plan). Blocks only when the queue is at capacity.
    pub fn submit(&self, query: Query) -> Ticket {
        self.submit_request(EstimateRequest::new(query))
    }

    /// Submits one request — a batch of one over the batch path. If the
    /// service is already shutting down, the returned ticket resolves with
    /// [`ServiceError::SubmitAfterShutdown`] — the error is never silently
    /// dropped.
    pub fn submit_request(&self, request: EstimateRequest) -> Ticket {
        let BatchTicket { rx, .. } = self.submit_requests(vec![request]);
        Ticket { rx }
    }

    /// Submits a batch of queries. The batch
    /// is one queue entry and resolves with one reply, so batched
    /// submission stays cheap at high request rates.
    pub fn submit_batch(&self, queries: &[Query]) -> BatchTicket {
        self.submit_requests(queries.iter().cloned().map(EstimateRequest::new).collect())
    }

    /// [`Self::submit_batch`] with per-request control.
    ///
    /// Blocks — the backpressure — until the queue has room for the whole
    /// batch or is empty (so a batch larger than the capacity waits for
    /// the queue to drain instead of deadlocking); a batch is never
    /// partially enqueued. One that loses the race with shutdown is
    /// refused whole: [`BatchTicket::accepted`] is 0 and every slot
    /// resolves with [`ServiceError::SubmitAfterShutdown`]. An empty batch
    /// resolves at once, to an empty result.
    pub fn submit_requests(&self, requests: Vec<EstimateRequest>) -> BatchTicket {
        let (tx, rx) = mpsc::channel::<Reply>();
        let expected = requests.len();
        let mut accepted = expected;
        let batch = Batch::new(0, requests, tx);
        if let Err(Closed(batch)) = self.pool.queue.push(batch, expected) {
            batch.refuse(&ServiceError::SubmitAfterShutdown);
            accepted = 0;
        }
        BatchTicket {
            rx,
            expected,
            accepted,
        }
    }

    /// Non-blocking, all-or-nothing batch submission — the admission-
    /// control path of the network tier, which must never stall a
    /// connection thread. The batch is enqueued only when the queue is
    /// open and `queued + n <= capacity` (so a batch larger than the
    /// capacity is always shed); otherwise it comes back in
    /// [`AdmissionRejected`] (reason [`RejectReason::Overloaded`] on a
    /// full queue — all `n` counted as shed load in
    /// [`StatsSnapshot::shed`] — or [`RejectReason::ShuttingDown`] on a
    /// closed one). The reply goes to a caller-owned channel, tagged so
    /// interleaved batches can share it (one reply channel per connection,
    /// tag = wire request id).
    pub(crate) fn offer_tagged(
        &self,
        requests: Vec<EstimateRequest>,
        tag: u64,
        reply: &mpsc::Sender<Reply>,
    ) -> Result<(), AdmissionRejected> {
        let count = requests.len();
        let batch = Batch::new(tag, requests, reply.clone());
        let (reason, batch) = match self.pool.queue.try_push(batch, count) {
            Ok(()) => return Ok(()),
            Err(TryPushError::Full(batch)) => {
                self.pool.stats.record_shed(count);
                (RejectReason::Overloaded, batch)
            }
            Err(TryPushError::Closed(batch)) => (RejectReason::ShuttingDown, batch),
        };
        Err(AdmissionRejected {
            reason,
            requests: batch.into_requests(),
        })
    }

    /// Counts an admission-control rejection (per-client quota) of a
    /// batch of `requests` queries in [`StatsSnapshot::rejected`], which
    /// counts queries like [`StatsSnapshot::shed`]. Called by serving
    /// tiers layered on top — quota policy lives with the connection
    /// state they own, but the counter belongs to the service the client
    /// was refused.
    pub fn record_admission_rejection(&self, requests: usize) {
        self.pool.stats.record_rejected(requests);
    }

    /// The shared registry (publish/swap models through this).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.pool.registry
    }

    /// Requests queued but not yet picked up by a worker (a health-probe
    /// load signal).
    pub fn queue_depth(&self) -> usize {
        self.pool.queue.len()
    }

    /// The bounded queue's capacity.
    pub fn queue_capacity(&self) -> usize {
        self.pool.queue.capacity()
    }

    /// Register this service's counters, latency and five stage
    /// histograms, and a live queue-depth gauge into `registry`, labelled
    /// with `dataset`.
    /// Entries are closure-backed `Arc` clones: the hot path records into
    /// the same atomics it always did and never touches the registry.
    pub fn install_metrics(&self, registry: &MetricsRegistry, dataset: &str) {
        self.pool.stats.install_metrics(registry, dataset);
        let queue = Arc::clone(&self.pool.queue);
        registry.register_gauge_fn(
            "fj_queue_depth",
            "Requests queued but not yet picked up by a worker.",
            &[("dataset", dataset)],
            move || queue.len() as f64,
        );
    }

    /// The shard's stats owner, which the network tier records its
    /// admission, encode and socket-write stages into.
    pub(crate) fn stats_inner(&self) -> &Arc<StatsInner> {
        &self.pool.stats
    }

    /// Service counters since start (or the last [`Self::reset_stats`]).
    pub fn stats(&self) -> StatsSnapshot {
        let (depth, high_water) = self.pool.queue.depth_and_high_water();
        self.pool.stats.snapshot(depth, high_water)
    }

    /// Clears counters and histograms and resets the queue high-water mark
    /// (between benchmark warm-up and the timed run).
    pub fn reset_stats(&self) {
        self.pool.stats.reset();
        self.pool.queue.reset_high_water();
    }

    /// Shuts down: rejects new submits, serves everything already queued,
    /// joins the workers. (`Drop` does the same; this form is explicit.)
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.pool.queue.close();
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
    use crate::request::{EstimateResponse, ServiceError};
    use crate::worker::{Resolved, Worker};
    use factorjoin::{BaseEstimatorKind, BinBudget, FactorJoinConfig};
    use fj_datagen::{stats_catalog, stats_ceb_workload, StatsConfig, WorkloadConfig};
    use std::time::{Duration, Instant};

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
        assert_eq!(&*got.dataset, "stats");
        assert!(got.worker < 2);

        let batch = service.submit_batch(&wl).wait_all();
        assert_eq!(batch.len(), wl.len());
        for (resp, exp) in batch.iter().zip(&expected) {
            assert_eq!(resp.as_ref().unwrap().estimates, *exp);
        }
        assert!(service.submit_batch(&[]).wait_all().is_empty());
        let snap = service.stats();
        assert_eq!(snap.requests as usize, wl.len() + 1);
        assert!(snap.subplans > 0);
        assert_eq!(snap.errors, 0);
    }

    #[test]
    fn unknown_dataset_errors() {
        let (model, wl) = tiny_setup();
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("stats", model);
        let service = EstimatorService::start(registry, ServiceConfig::new("nope", 1));
        let err = service.submit(wl[0].clone()).wait().unwrap_err();
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

    /// A worker-less service (private constructor): batches stay queued
    /// until the test claims them, making every race deterministic.
    fn stalled_service(queue_capacity: usize) -> EstimatorService {
        EstimatorService {
            pool: Arc::new(Pool {
                dataset: Arc::from("stats"),
                queue: Arc::new(BoundedQueue::new(queue_capacity)),
                registry: Arc::new(ModelRegistry::new()),
                stats: Arc::new(StatsInner::new()),
                cache: None,
            }),
            workers: Vec::new(),
        }
    }

    fn requests(wl: &[Query], n: usize) -> Vec<EstimateRequest> {
        (wl.iter().cycle().take(n).cloned())
            .map(EstimateRequest::new)
            .collect()
    }

    fn bits(estimates: &[(u64, f64)]) -> Vec<(u64, u64)> {
        estimates.iter().map(|&(m, e)| (m, e.to_bits())).collect()
    }

    /// Asserts `got` is `query` served by `model`, bit for bit.
    fn assert_served_by(got: &EstimateResponse, model: &FactorJoinModel, query: &Query) {
        assert_eq!(
            bits(&got.estimates),
            bits(&model.estimate_subplans(query, 1))
        );
    }

    #[test]
    fn submit_after_close_resolves_with_distinct_error() {
        // Regression: the Closed error from the queue used to be discarded
        // (`let _ = self.pool.queue.push(job)`), leaving the caller with only a
        // generic Shutdown after an arbitrary wait. Submission against a
        // closed queue must resolve immediately and distinctly.
        let (model, wl) = tiny_setup();
        let service = stalled_service(4);
        service.pool.registry.publish("stats", model);
        service.pool.queue.close();

        let err = service.submit(wl[0].clone()).wait().unwrap_err();
        assert_eq!(err, ServiceError::SubmitAfterShutdown);

        let ticket = service.submit_batch(&wl);
        assert_eq!(ticket.accepted(), 0, "nothing was enqueued");
        for result in ticket.wait_all() {
            assert_eq!(result.unwrap_err(), ServiceError::SubmitAfterShutdown);
        }
    }

    #[test]
    fn close_during_blocked_submit_batch_refuses_it_whole() {
        // A batch is admitted whole or not at all, on the blocking path
        // too: one that is parked for room when the queue closes comes
        // back refused — nothing of it enqueued, accepted() == 0, every
        // slot SubmitAfterShutdown (not a hang, not generic Shutdown).
        let (model, wl) = tiny_setup();
        let service = stalled_service(1);
        service.pool.registry.publish("stats", model);
        let earlier = service.submit(wl[0].clone()); // fills the queue

        let ticket = std::thread::scope(|s| {
            let submitter = s.spawn(|| service.submit_requests(requests(&wl, 2)));
            // Neither room nor an empty queue: the submitter parks. Close
            // exactly then — the mid-submit shutdown race.
            while service.pool.queue.blocked_producers() == 0 {
                std::thread::yield_now();
            }
            assert_eq!(service.pool.queue.len(), 1, "no part of the batch went in");
            service.pool.queue.close();
            submitter.join().expect("submitter thread")
        });
        assert_eq!((ticket.len(), ticket.accepted()), (2, 0));
        for result in ticket.wait_all() {
            assert_eq!(result.unwrap_err(), ServiceError::SubmitAfterShutdown);
        }

        // What was admitted before the close is still served.
        assert_eq!(service.pool.queue.len(), 1);
        let (batch, index) = service.pool.queue.claim().expect("the earlier submit");
        Worker::new(0, &service.pool).serve(&batch, index, &mut Resolved::default());
        assert!(earlier.wait().is_ok());
    }

    #[test]
    fn a_batch_is_one_reply_in_submission_order() {
        let (model, wl) = tiny_setup();
        for n in [1, 16] {
            let service = stalled_service(32);
            service.pool.registry.publish("stats", Arc::clone(&model));
            // n = 1 goes through `submit`: a Ticket is a batch of one.
            let rx = if n == 1 {
                service.submit(wl[0].clone()).rx
            } else {
                service.submit_requests(requests(&wl, n)).rx
            };
            assert_eq!(service.pool.queue.len(), n, "depth counts queries");

            let mut worker = Worker::new(0, &service.pool);
            let mut resolved = Resolved::default();
            for served in 0..n {
                assert!(rx.try_recv().is_err(), "no reply after {served} of {n}");
                let (batch, index) = service.pool.queue.claim().expect("queued");
                assert_eq!(index, served, "claims walk the batch in order");
                worker.serve(&batch, index, &mut resolved);
            }
            let (tag, results) = rx.try_recv().expect("the reply, once the last slot fills");
            assert_eq!((tag, results.len()), (0, n));
            for (result, query) in results.iter().zip(wl.iter().cycle()) {
                assert_served_by(result.as_ref().expect("served"), &model, query);
            }
            assert_eq!(
                rx.try_recv().unwrap_err(),
                mpsc::TryRecvError::Disconnected,
                "exactly one message per batch"
            );
            assert_eq!(service.stats().requests as usize, n);
        }
    }

    #[test]
    fn two_workers_share_a_batch_and_the_last_to_finish_replies() {
        let (model, wl) = tiny_setup();
        for last in [0, 1] {
            let service = stalled_service(8);
            service.pool.registry.publish("stats", Arc::clone(&model));
            let ticket = service.submit_requests(requests(&wl, 4));
            let mut workers = [Worker::new(0, &service.pool), Worker::new(1, &service.pool)];
            let mut resolved = [Resolved::default(), Resolved::default()];

            // Both idle workers wake on the one batch and take turns at
            // its claim cursor: worker 0 gets queries 0 and 2, worker 1
            // gets 1 and 3.
            let (batch, q0) = service.pool.queue.claim().expect("worker 0's claim");
            let (same, q1) = service.pool.queue.claim().expect("worker 1's claim");
            assert!(Arc::ptr_eq(&batch, &same), "one batch, shared");
            let q2 = service
                .pool
                .queue
                .claim_more(&batch)
                .expect("worker 0 again");
            let q3 = service
                .pool
                .queue
                .claim_more(&batch)
                .expect("worker 1 again");
            let claims = [[q0, q2], [q1, q3]];
            assert_eq!(claims, [[0, 2], [1, 3]]);
            assert_eq!(service.pool.queue.claim_more(&batch), None, "fully claimed");
            assert!(service.pool.queue.is_empty(), "and so out of the queue");

            // Whoever is not `last` finishes both of its queries first.
            for w in [1 - last, last] {
                for index in claims[w] {
                    assert!(ticket.rx.try_recv().is_err(), "a slot is still open");
                    workers[w].serve(&batch, index, &mut resolved[w]);
                }
            }
            let results = ticket.wait_all();
            for (index, result) in results.iter().enumerate() {
                let got = result.as_ref().expect("served");
                assert_eq!(got.worker, index % 2, "disjoint claims cover the batch");
                assert_served_by(got, &model, &wl[index % wl.len()]);
            }
        }
    }

    #[test]
    fn deadline_passing_mid_batch_sheds_only_the_rest() {
        // A worker checks each query's deadline when it claims it, so a
        // batch deadline that passes between the 3rd and 4th claim is a
        // batch whose first three deadlines lie ahead and the rest behind.
        let (model, wl) = tiny_setup();
        let service = stalled_service(8);
        service.pool.registry.publish("stats", Arc::clone(&model));
        let now = Instant::now();
        let batch: Vec<EstimateRequest> = (requests(&wl, 6).into_iter().enumerate())
            .map(|(i, r)| {
                r.with_deadline(if i < 3 {
                    now + Duration::from_secs(3600)
                } else {
                    now
                })
            })
            .collect();
        let ticket = service.submit_requests(batch);

        let mut worker = Worker::new(0, &service.pool);
        let mut resolved = Resolved::default();
        while !service.pool.queue.is_empty() {
            let (batch, index) = service.pool.queue.claim().expect("queued");
            worker.serve(&batch, index, &mut resolved);
        }
        let results = ticket.wait_all();
        for (index, result) in results.iter().enumerate() {
            match result {
                Ok(got) if index < 3 => assert_served_by(got, &model, &wl[index % wl.len()]),
                Err(ServiceError::DeadlineExceeded) if index >= 3 => {}
                other => panic!("slot {index}: {other:?}"),
            }
        }
        let snap = service.stats();
        assert_eq!(
            (snap.requests, snap.expired),
            (3, 3),
            "expiry counts per query"
        );
    }

    /// Structurally valid, but naming a table the model never saw: the
    /// query is refused by name before estimation, in its own slot.
    #[test]
    fn a_query_the_model_lacks_fails_its_slot_only() {
        let (model, wl) = tiny_setup();
        let service = stalled_service(8);
        service.pool.registry.publish("stats", Arc::clone(&model));
        let bogus = Query::from_wire_parts(
            vec![fj_query::TableRef::new("z", "no_such_table")],
            vec![],
            vec![fj_query::FilterExpr::True],
        )
        .expect("structurally valid");
        let queries = [wl[0].clone(), bogus, wl[1].clone()];
        let ticket = service.submit_batch(&queries);

        let mut worker = Worker::new(0, &service.pool);
        let mut resolved = Resolved::default();
        while !service.pool.queue.is_empty() {
            let (batch, index) = service.pool.queue.claim().expect("queued");
            worker.serve(&batch, index, &mut resolved);
        }
        let results = ticket.wait_all();
        assert_served_by(results[0].as_ref().expect("before"), &model, &wl[0]);
        assert_eq!(
            results[1].as_ref().unwrap_err(),
            &ServiceError::InvalidQuery(fj_query::QueryError::UnknownTable("no_such_table".into()))
        );
        assert_served_by(results[2].as_ref().expect("after"), &model, &wl[1]);
        let snap = service.stats();
        assert_eq!((snap.requests, snap.errors, snap.worker_panics), (2, 1, 0));
    }

    #[test]
    fn hot_swap_between_batches_never_mixes_epochs_within_one() {
        let (model_a, wl) = tiny_setup();
        let model_b = Arc::new(FactorJoinModel::train(
            &stats_catalog(&StatsConfig {
                scale: 0.02,
                ..Default::default()
            }),
            FactorJoinConfig {
                bin_budget: BinBudget::Uniform(25),
                estimator: BaseEstimatorKind::TrueScan,
                ..Default::default()
            },
        ));
        let service = stalled_service(8);
        let epoch_a = service.pool.registry.publish("stats", Arc::clone(&model_a));
        let tickets = [
            service.submit_requests(requests(&wl, 3)),
            service.submit_requests(requests(&wl, 3)),
        ];

        // The swap lands after the worker's first query of batch 0: what
        // it resolved for that batch holds until the batch runs out.
        let mut worker = Worker::new(0, &service.pool);
        let mut epoch_b = None;
        for _ in 0..2 {
            let (batch, first) = service.pool.queue.claim().expect("queued");
            let mut resolved = Resolved::default();
            let mut next = Some(first);
            while let Some(index) = next {
                worker.serve(&batch, index, &mut resolved);
                if epoch_b.is_none() {
                    service
                        .pool
                        .registry
                        .swap_model("stats", Arc::clone(&model_b));
                    epoch_b = Some(service.pool.registry.get("stats").expect("published").epoch);
                }
                next = service.pool.queue.claim_more(&batch);
            }
        }
        let served = [(epoch_a, &model_a), (epoch_b.expect("swapped"), &model_b)];
        for (ticket, (epoch, model)) in tickets.into_iter().zip(served) {
            for (result, query) in ticket.wait_all().iter().zip(wl.iter().cycle()) {
                let got = result.as_ref().expect("served");
                assert_eq!(got.model_epoch, epoch);
                assert_served_by(got, model, query);
            }
        }
    }

    #[test]
    fn offer_requests_sheds_on_full_queue_and_counts_it() {
        let (model, wl) = tiny_setup();
        let service = stalled_service(2); // no workers: queue never drains
        service.pool.registry.publish("stats", Arc::clone(&model));
        let (tx, rx) = mpsc::channel::<Reply>();
        let offer = |n: usize| service.offer_tagged(requests(&wl, n), 7, &tx);
        // A batch larger than capacity is always shed, all-or-nothing.
        let err = offer(3).unwrap_err();
        assert_eq!(err.reason, RejectReason::Overloaded);
        assert_eq!(err.requests.len(), 3, "the batch comes back for retry");
        assert_eq!(service.pool.queue.len(), 0, "nothing partially enqueued");
        // A fitting batch is accepted.
        offer(2).expect("fits");
        assert_eq!(service.pool.queue.len(), 2);
        assert!(rx.try_recv().is_err(), "accepted, not yet served");
        // Now the queue is full: even a single request is shed.
        let err = offer(1).unwrap_err();
        assert_eq!(err.reason, RejectReason::Overloaded);
        // Quota rejections recorded through the public hook, per query.
        service.record_admission_rejection(2);
        let snap = service.stats();
        assert_eq!(snap.shed, 4, "3 + 1 shed requests counted");
        assert_eq!(snap.rejected, 2);
        // Closed queue refuses with ShuttingDown instead.
        service.pool.queue.close();
        let err = offer(1).unwrap_err();
        assert_eq!(err.reason, RejectReason::ShuttingDown);
    }

    #[test]
    fn shutdown_serves_queued_then_rejects() {
        let (model, wl) = tiny_setup();
        let service = EstimatorService::serve("stats", Arc::clone(&model), 1);
        let ticket = service.submit(wl[0].clone());
        let batches = [service.submit_batch(&wl), service.submit_batch(&wl)];
        service.shutdown();
        // Submitted before shutdown → still served, every admitted batch
        // to completion.
        assert!(ticket.wait().is_ok());
        for batch in batches {
            assert!(batch.wait_all().iter().all(|r| r.is_ok()));
        }
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
