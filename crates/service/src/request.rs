//! Request/response types and completion tickets.

use fj_query::{Query, SubplanMask};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// One estimation request: a query plus how it should be served.
#[derive(Debug, Clone)]
pub struct EstimateRequest {
    /// Registry dataset to serve from; `None` uses the service default.
    pub dataset: Option<String>,
    /// The join query to estimate.
    pub query: Query,
    /// Minimum sub-plan size to report (1 = include single tables), as in
    /// [`factorjoin::FactorJoinModel::estimate_subplans`].
    pub min_size: u32,
    /// Latest instant at which the result is still useful. A worker that
    /// claims the request past this point **sheds** it — replies
    /// [`ServiceError::DeadlineExceeded`] without estimating (counted as
    /// [`crate::StatsSnapshot::expired`]) — instead of burning CPU on an
    /// answer nobody is waiting for. `None` means no deadline.
    pub deadline: Option<Instant>,
}

impl EstimateRequest {
    /// A request for every connected sub-plan of `query` on the service's
    /// default dataset.
    pub fn new(query: Query) -> Self {
        EstimateRequest {
            dataset: None,
            query,
            min_size: 1,
            deadline: None,
        }
    }

    /// Targets a specific registry dataset.
    pub fn on_dataset(mut self, dataset: &str) -> Self {
        self.dataset = Some(dataset.to_string());
        self
    }

    /// Restricts the response to sub-plans with at least `min_size` aliases.
    pub fn with_min_size(mut self, min_size: u32) -> Self {
        self.min_size = min_size;
        self
    }

    /// Sets the absolute deadline past which the request is shed unserved.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// A served estimation result.
#[derive(Debug, Clone)]
pub struct EstimateResponse {
    /// Every connected sub-plan's probabilistic cardinality bound, in the
    /// same deterministic order `estimate_subplans` produces.
    pub estimates: Vec<(SubplanMask, f64)>,
    /// Dataset the request was served from (shared, not allocated per
    /// response).
    pub dataset: Arc<str>,
    /// Epoch of the model that served the request (see
    /// [`crate::ModelRegistry`]); lets clients detect hot-swaps.
    pub model_epoch: u64,
    /// Id of the worker thread that served the request.
    pub worker: usize,
    /// Time the request spent queued before a worker picked it up.
    pub queue_wait: Duration,
    /// Time the worker spent estimating.
    pub estimate_time: Duration,
}

impl EstimateResponse {
    /// End-to-end latency: queue wait plus estimation time.
    pub fn latency(&self) -> Duration {
        self.queue_wait + self.estimate_time
    }
}

/// Why a request could not be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The request named a dataset the registry does not hold.
    UnknownDataset(String),
    /// The request was accepted (enqueued), but the service shut down
    /// before a worker served it.
    Shutdown,
    /// The request was **never accepted**: the service was already
    /// shutting down when it was submitted, so no worker ever saw it.
    /// Distinct from [`ServiceError::Shutdown`] so a caller racing
    /// shutdown can tell a batch refused at the door (safe to resubmit
    /// elsewhere) from one that was admitted and then lost.
    SubmitAfterShutdown,
    /// The request's [`EstimateRequest::deadline`] passed before a worker
    /// picked it up, so it was shed unserved (the caller stopped waiting;
    /// estimating anyway would only steal CPU from live requests).
    DeadlineExceeded,
    /// The worker thread panicked while estimating this request. The panic
    /// was contained: the worker kept serving (with a fresh scratch), no
    /// lock was poisoned, and the panic message is carried here so the
    /// client sees *why* instead of a hang.
    WorkerPanicked(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownDataset(name) => write!(f, "unknown dataset {name:?}"),
            ServiceError::Shutdown => write!(f, "service shut down before serving the request"),
            ServiceError::SubmitAfterShutdown => {
                write!(
                    f,
                    "request rejected at submit: the service is shutting down"
                )
            }
            ServiceError::DeadlineExceeded => {
                write!(f, "deadline exceeded before a worker picked up the request")
            }
            ServiceError::WorkerPanicked(msg) => {
                write!(f, "worker panicked while estimating: {msg}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// Why an admission-controlled submission was refused (never blocked).
///
/// Shared between the in-process non-blocking path
/// ([`crate::EstimatorService::offer_requests`]) and the network tier's
/// reject frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The client exceeded its in-flight request quota.
    QuotaExceeded,
    /// The bounded queue had no room for the batch: load was shed rather
    /// than blocking the submitter.
    Overloaded,
    /// The service is shutting down.
    ShuttingDown,
    /// The request named a dataset the server does not shard.
    UnknownDataset,
    /// The batch was served, but its encoded response would not fit one
    /// wire frame, so the results were discarded instead of written
    /// (writing an oversized frame would make the client abort the whole
    /// connection). The client's recourse is to split the batch.
    ResponseTooLarge,
    /// The request's deadline passed before it was fully served; whatever
    /// was computed was discarded (a response nobody is waiting for is
    /// dead weight on the wire). Retrying is pointless on the same budget.
    DeadlineExceeded,
}

impl RejectReason {
    /// Stable human-readable name (also used in wire messages).
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::QuotaExceeded => "quota exceeded",
            RejectReason::Overloaded => "overloaded",
            RejectReason::ShuttingDown => "shutting down",
            RejectReason::UnknownDataset => "unknown dataset",
            RejectReason::ResponseTooLarge => "response too large",
            RejectReason::DeadlineExceeded => "deadline exceeded",
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A refused non-blocking submission; the requests come back for retry.
#[derive(Debug)]
pub struct AdmissionRejected {
    /// Why the batch was refused.
    pub reason: RejectReason,
    /// The refused requests, returned untouched.
    pub requests: Vec<EstimateRequest>,
}

impl std::fmt::Display for AdmissionRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch of {} refused: {}",
            self.requests.len(),
            self.reason
        )
    }
}

impl std::error::Error for AdmissionRejected {}

/// A batch's one reply: (multiplexing tag, every query's result in
/// submission order). Whichever worker resolves the batch's last query
/// sends it — one message per batch, however many queries it held or
/// workers served it. The tag is 0 for plain in-process submits; the
/// network tier uses it to route replies of interleaved requests sharing
/// one connection channel.
pub(crate) type Reply = (u64, Vec<Result<EstimateResponse, ServiceError>>);

/// Completion handle for a single submitted request — a batch of one.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) rx: mpsc::Receiver<Reply>,
}

impl Ticket {
    /// Blocks until the response arrives.
    pub fn wait(self) -> Result<EstimateResponse, ServiceError> {
        match self.rx.recv() {
            Ok((_, mut results)) => results.pop().unwrap_or(Err(ServiceError::Shutdown)),
            Err(_) => Err(ServiceError::Shutdown),
        }
    }
}

/// Completion handle for a submitted batch. The batch resolves with one
/// message on one channel, so waiting on a large batch costs one wake-up,
/// not N.
#[derive(Debug)]
pub struct BatchTicket {
    pub(crate) rx: mpsc::Receiver<Reply>,
    pub(crate) expected: usize,
    pub(crate) accepted: usize,
}

impl BatchTicket {
    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.expected
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.expected == 0
    }

    /// How many of the batch's requests were enqueued. A batch is admitted
    /// whole or not at all, so this is [`Self::len`] — or 0 when
    /// submission lost the race with shutdown, in which case every slot
    /// resolves with [`ServiceError::SubmitAfterShutdown`].
    pub fn accepted(&self) -> usize {
        self.accepted
    }

    /// Blocks until the batch has been served; results are in submission
    /// order regardless of which worker served which query. If the service
    /// goes away without serving an admitted batch, every slot reports
    /// [`ServiceError::Shutdown`]; a batch refused at the door reports
    /// [`ServiceError::SubmitAfterShutdown`] in every slot.
    pub fn wait_all(self) -> Vec<Result<EstimateResponse, ServiceError>> {
        match self.rx.recv() {
            Ok((_, results)) => results,
            Err(_) => (0..self.expected)
                .map(|_| Err(ServiceError::Shutdown))
                .collect(),
        }
    }
}
