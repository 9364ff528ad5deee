//! [`FjServer`]: the TCP serving tier over per-dataset estimator shards.

use super::wire::{
    self, read_frame, write_frame, FrameRead, WireEstimates, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use crate::registry::ModelRegistry;
use crate::request::{EstimateRequest, EstimateResponse, RejectReason, Reply, ServiceError};
use crate::service::{EstimatorService, ServiceConfig};
use crate::stats::{StatsInner, StatsSnapshot};
use factorjoin::FactorJoinModel;
use fj_obs::{MetricsRegistry, SlowLog, SlowQuery, Stage, StageBreakdown};
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One dataset served by the network tier: a name plus the registry its
/// models are published through.
pub struct ShardSpec {
    dataset: String,
    registry: Arc<ModelRegistry>,
}

impl ShardSpec {
    /// A shard serving `model` under `dataset` (a fresh single-entry
    /// registry).
    pub fn new(dataset: &str, model: Arc<FactorJoinModel>) -> Self {
        let registry = Arc::new(ModelRegistry::new());
        registry.publish(dataset, model);
        ShardSpec {
            dataset: dataset.to_string(),
            registry,
        }
    }

    /// A shard serving `dataset` out of an existing registry — keep a clone
    /// of the `Arc` to hot-swap models while the server runs.
    pub fn with_registry(dataset: &str, registry: Arc<ModelRegistry>) -> Self {
        ShardSpec {
            dataset: dataset.to_string(),
            registry,
        }
    }
}

/// Network-tier tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads per dataset shard.
    pub workers_per_shard: usize,
    /// Bounded request-queue capacity per shard. A batch that does not fit
    /// is **shed** (rejected whole, [`RejectReason::Overloaded`]) rather
    /// than blocking the connection's reader thread.
    pub queue_capacity: usize,
    /// Per-connection admission quota: at most this many `EstimateBatch`
    /// requests in flight per client. The next request past the quota is
    /// rejected ([`RejectReason::QuotaExceeded`]), never queued or blocked.
    pub max_inflight_per_client: usize,
    /// Socket read timeout per connection. Bounds how long a peer may
    /// stall **mid-frame** before the connection is dropped as broken; a
    /// timeout at a frame boundary just means the peer is quiet and is
    /// tolerated up to [`ServerConfig::idle_timeout`]. `None` restores
    /// blocking reads (a stalled peer then pins its reader thread until
    /// shutdown).
    pub read_timeout: Option<Duration>,
    /// Reap a connection with no request in flight and no frame received
    /// for this long (needs [`ServerConfig::read_timeout`] to be
    /// effective, since idleness is only observed when a read wakes).
    /// `None` keeps idle connections forever.
    pub idle_timeout: Option<Duration>,
    /// Socket write timeout per connection: a client that cannot drain
    /// this long is treated as dead and disconnected, so its backpressure
    /// cannot wedge the reply path. `None` blocks writes indefinitely.
    pub write_timeout: Option<Duration>,
    /// Worst-N capacity of the slow-query log rendered into
    /// [`FjServer::metrics_text`] (min 1). Defaults to 16.
    pub slowlog_capacity: usize,
}

impl ServerConfig {
    /// Defaults: 2 workers per shard, 1024-deep queues, 64 in-flight
    /// batches per client, 500 ms read / 30 s write timeouts, 60 s idle
    /// reaping.
    pub fn new(workers_per_shard: usize) -> Self {
        ServerConfig {
            workers_per_shard,
            queue_capacity: 1024,
            max_inflight_per_client: 64,
            read_timeout: Some(Duration::from_millis(500)),
            idle_timeout: Some(Duration::from_secs(60)),
            write_timeout: Some(Duration::from_secs(30)),
            slowlog_capacity: 16,
        }
    }

    /// Overrides the per-shard queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Overrides the per-client in-flight quota.
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight_per_client = max_inflight.max(1);
        self
    }

    /// Overrides the socket read timeout.
    pub fn with_read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = timeout;
        self
    }

    /// Overrides the idle-connection reaping threshold.
    pub fn with_idle_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Overrides the socket write timeout.
    pub fn with_write_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.write_timeout = timeout;
        self
    }

    /// Overrides the slow-query log capacity.
    pub fn with_slowlog_capacity(mut self, capacity: usize) -> Self {
        self.slowlog_capacity = capacity.max(1);
        self
    }
}

/// Shared per-server state handed to every connection thread.
struct ServerShared {
    /// One worker pool per dataset; each serves out of its shard's
    /// registry and owns its statistics.
    shards: HashMap<String, EstimatorService>,
    /// Sorted dataset names, precomputed for the hello frame.
    datasets: Vec<String>,
    max_inflight: usize,
    read_timeout: Option<Duration>,
    idle_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    shutting_down: AtomicBool,
    /// Graceful shutdown in progress: no new connections, no new batches
    /// (rejected with [`RejectReason::ShuttingDown`]), in-flight work
    /// finishes. Health probes keep answering so peers see the state.
    draining: AtomicBool,
    /// Read halves of live connections keyed by connection id, so shutdown
    /// can unblock their reader threads. Each connection removes its own
    /// entry when it ends, so a long-running server does not accumulate
    /// one duplicated fd per client ever served.
    conn_streams: Mutex<HashMap<u64, TcpStream>>,
    /// Ids of connections whose threads have finished; the accept loop
    /// reaps (joins and forgets) their handles before serving the next
    /// client, shutdown reaps whatever remains.
    finished_conns: Mutex<Vec<u64>>,
    /// Every shard's counters, queue gauge, and latency/stage histograms,
    /// rendered on demand for the `Metrics` opcode.
    metrics: MetricsRegistry,
    /// Worst-N completed batches with per-stage breakdowns, rendered as
    /// `# slowlog` comment lines after the exposition text.
    slowlog: Arc<SlowLog>,
}

impl ServerShared {
    /// Prometheus exposition for every shard plus the slow-query log.
    fn metrics_text(&self) -> String {
        let mut text = self.metrics.render();
        text.push_str(&self.slowlog.render());
        text
    }
}

/// A running TCP estimation server (see the crate docs' "network serving
/// tier" section and `ARCHITECTURE.md` for the wire protocol).
///
/// Each [`ShardSpec`] dataset gets its own [`EstimatorService`] worker
/// pool over its own bounded queue, so a flood against one dataset sheds
/// load there without starving the others. Connections are one reader
/// thread plus one reply-collector thread; responses are multiplexed by
/// the client-chosen `request_id` and may complete out of order.
///
/// Dropping the server (or calling [`FjServer::shutdown`]) stops
/// accepting, unblocks and joins every connection, then drains and joins
/// the shard worker pools.
pub struct FjServer {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept_thread: Option<JoinHandle<()>>,
    conn_threads: Arc<Mutex<HashMap<u64, JoinHandle<()>>>>,
}

impl FjServer {
    /// Binds `addr` (use `"127.0.0.1:0"` for an ephemeral loopback port)
    /// and starts serving `shards`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        shards: Vec<ShardSpec>,
        config: ServerConfig,
    ) -> io::Result<FjServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;

        let mut shard_map = HashMap::new();
        for spec in shards {
            let service = EstimatorService::start(
                spec.registry,
                ServiceConfig::new(&spec.dataset, config.workers_per_shard)
                    .with_queue_capacity(config.queue_capacity),
            );
            shard_map.insert(spec.dataset, service);
        }
        let mut datasets: Vec<String> = shard_map.keys().cloned().collect();
        datasets.sort();

        // Register every shard's metrics in sorted dataset order, so the
        // exposition text is deterministic across runs.
        let metrics = MetricsRegistry::new();
        for name in &datasets {
            shard_map[name].install_metrics(&metrics, name);
        }

        let shared = Arc::new(ServerShared {
            shards: shard_map,
            datasets,
            max_inflight: config.max_inflight_per_client.max(1),
            read_timeout: config.read_timeout,
            idle_timeout: config.idle_timeout,
            write_timeout: config.write_timeout,
            shutting_down: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            conn_streams: Mutex::new(HashMap::new()),
            finished_conns: Mutex::new(Vec::new()),
            metrics,
            slowlog: Arc::new(SlowLog::new(config.slowlog_capacity)),
        });
        let conn_threads = Arc::new(Mutex::new(HashMap::new()));

        let accept_shared = Arc::clone(&shared);
        let accept_conns = Arc::clone(&conn_threads);
        let accept_thread = std::thread::Builder::new()
            .name("fj-server-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared, accept_conns))
            .expect("spawn accept thread");

        Ok(FjServer {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }

    /// The bound address (with the resolved port for `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry backing `dataset`'s shard, for server-side hot-swaps.
    pub fn registry(&self, dataset: &str) -> Option<&Arc<ModelRegistry>> {
        self.shared.shards.get(dataset).map(|s| s.registry())
    }

    /// Serving counters of `dataset`'s shard — including the
    /// [`StatsSnapshot::rejected`] (quota) and [`StatsSnapshot::shed`]
    /// (queue-full) admission counters. Latency distributions are in
    /// [`FjServer::metrics_text`].
    pub fn stats(&self, dataset: &str) -> Option<StatsSnapshot> {
        self.shared.shards.get(dataset).map(|s| s.stats())
    }

    /// The Prometheus text exposition for every shard — counters, queue
    /// gauge, latency and per-stage histograms — followed by `# slowlog`
    /// comment lines for the worst-N completed batches. This is exactly what the
    /// wire `Metrics` opcode (see [`FjClient::metrics`]) returns.
    ///
    /// [`FjClient::metrics`]: super::FjClient::metrics
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Datasets served, sorted (as reported to clients in the handshake).
    pub fn datasets(&self) -> &[String] {
        &self.shared.datasets
    }

    /// Resets `dataset`'s shard statistics — counters, latency and stage
    /// histograms, queue high-water mark — between benchmark warm-up and
    /// the timed window. Returns whether the dataset has a shard.
    pub fn reset_stats(&self, dataset: &str) -> bool {
        match self.shared.shards.get(dataset) {
            Some(shard) => {
                shard.reset_stats();
                true
            }
            None => false,
        }
    }

    /// Whether [`FjServer::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Begins graceful shutdown: stop accepting new connections (the
    /// listener closes, so fresh connects are refused at the TCP layer),
    /// reject new batches on existing connections with
    /// [`RejectReason::ShuttingDown`], keep answering health probes
    /// (reporting `draining: true`), and let in-flight work finish.
    /// Returns once the accept loop has stopped; call
    /// [`FjServer::shutdown`] (or drop) afterwards for the full teardown.
    pub fn begin_drain(&mut self) {
        if self.shared.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop so it observes the drain and exits,
        // dropping the listener. (Connect errors mean it already has.)
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }

    /// Stops accepting, disconnects clients, drains queued work, and joins
    /// every thread. (`Drop` does the same; this form is explicit.)
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop: it is blocked in accept(), so poke it with
        // a throwaway connection. (Errors mean it is already unblocked.)
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // Unblock every connection reader; their collector threads drain
        // naturally once the shard services (still alive here) finish the
        // in-flight jobs.
        for (_, stream) in self.shared.conn_streams.lock().expect("conn list").drain() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let handles: Vec<JoinHandle<()>> = self
            .conn_threads
            .lock()
            .expect("conn threads")
            .drain()
            .map(|(_, handle)| handle)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
        // Shard services shut down (drain + join workers) when self.shared
        // drops with this, the last strong reference from the server side.
    }
}

impl Drop for FjServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<ServerShared>,
    conn_threads: Arc<Mutex<HashMap<u64, JoinHandle<()>>>>,
) {
    let mut next_conn_id: u64 = 0;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst)
                    || shared.draining.load(Ordering::SeqCst)
                {
                    return;
                }
                // Reclaim dead connections' fds (the likely cause of a
                // persistent EMFILE) and back off so a repeating accept
                // error cannot busy-spin this thread at 100% CPU.
                reap_finished(&shared, &conn_threads);
                std::thread::sleep(std::time::Duration::from_millis(20));
                continue;
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) || shared.draining.load(Ordering::SeqCst) {
            return; // the shutdown/drain poke, or a client racing it
        }
        // Join and forget connections that ended since the last accept.
        reap_finished(&shared, &conn_threads);
        let conn_id = next_conn_id;
        next_conn_id += 1;
        let _ = stream.set_nodelay(true);
        if let Ok(clone) = stream.try_clone() {
            shared
                .conn_streams
                .lock()
                .expect("conn list")
                .insert(conn_id, clone);
        }
        let conn_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("fj-server-conn".to_string())
            .spawn(move || {
                // Connection errors (bad frames, disconnects) drop just
                // this client; the server keeps serving.
                let _ = serve_connection(stream, &conn_shared, conn_id);
                // Deregister (already done unless setup failed): release
                // the duplicated shutdown fd now and queue the thread
                // handle for the accept loop to reap.
                conn_shared
                    .conn_streams
                    .lock()
                    .expect("conn list")
                    .remove(&conn_id);
                conn_shared
                    .finished_conns
                    .lock()
                    .expect("finished conns")
                    .push(conn_id);
            })
            .expect("spawn connection thread");
        conn_threads
            .lock()
            .expect("conn threads")
            .insert(conn_id, handle);
    }
}

/// Joins connection threads that announced completion and drops their
/// handles. Only the accept loop calls this, and it inserts a connection's
/// handle (program-order) before its next reap, so an announced id always
/// finds its handle; shutdown joins whatever was never reaped.
fn reap_finished(shared: &ServerShared, conn_threads: &Mutex<HashMap<u64, JoinHandle<()>>>) {
    let finished: Vec<u64> = std::mem::take(&mut *shared.finished_conns.lock().expect("finished"));
    if finished.is_empty() {
        return;
    }
    let mut threads = conn_threads.lock().expect("conn threads");
    for id in finished {
        if let Some(handle) = threads.remove(&id) {
            // The thread already announced completion, so this join is
            // instant (never blocked behind a live client).
            let _ = handle.join();
        }
    }
}

/// What the collector needs to finish a batch a shard service is working
/// on; the results themselves arrive whole in the service's one reply.
/// Presence in the connection's `pending` map is also what the
/// duplicate-in-flight-id check tests.
struct PendingBatch {
    /// Client-minted trace id (0 = untraced), echoed into the slowlog.
    trace_id: u64,
    dataset: String,
    /// When the request frame came off the socket — the batch's
    /// end-to-end serving time starts here.
    received: Instant,
    /// Frame receipt → enqueue (decode, admission checks, batch build).
    admission_ns: u64,
    /// The owning shard's stats, for encode/write recording.
    stats: Arc<StatsInner>,
}

fn serve_connection(stream: TcpStream, shared: &ServerShared, conn_id: u64) -> io::Result<()> {
    stream.set_read_timeout(shared.read_timeout)?;
    stream.set_write_timeout(shared.write_timeout)?;
    let writer = Arc::new(Mutex::new(stream.try_clone()?));
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();

    let (tx, rx) = mpsc::channel::<Reply>();
    let pending: Arc<Mutex<HashMap<u64, PendingBatch>>> = Arc::new(Mutex::new(HashMap::new()));
    let inflight = Arc::new(AtomicUsize::new(0));

    let collector = {
        let pending = Arc::clone(&pending);
        let writer = Arc::clone(&writer);
        let inflight = Arc::clone(&inflight);
        let slowlog = Arc::clone(&shared.slowlog);
        std::thread::Builder::new()
            .name("fj-server-collect".to_string())
            .spawn(move || collector_loop(rx, &pending, &writer, &inflight, &slowlog))
            .expect("spawn collector thread")
    };

    let result = reader_loop(
        &mut reader,
        &mut buf,
        shared,
        &writer,
        &pending,
        &inflight,
        &tx,
    );
    // The reader is done, so shutdown has nothing left to unblock here:
    // deregister now, while the last replies drain.
    shared
        .conn_streams
        .lock()
        .expect("conn list")
        .remove(&conn_id);
    // Dropping our sender lets the collector's recv() disconnect once the
    // shard services resolve every batch still in flight for this
    // connection (each holds a clone until it replies).
    drop(tx);
    let _ = collector.join();
    result
}

#[allow(clippy::too_many_arguments)]
fn reader_loop(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    shared: &ServerShared,
    writer: &Arc<Mutex<TcpStream>>,
    pending: &Arc<Mutex<HashMap<u64, PendingBatch>>>,
    inflight: &AtomicUsize,
    tx: &mpsc::Sender<Reply>,
) -> io::Result<()> {
    let reply = |frame: &[u8]| write_frame(&mut *writer.lock().expect("writer"), frame);
    let reject = |id: u64, reason: RejectReason, message: &str| {
        reply(&wire::encode_rejected(id, reason, message))
    };

    // A connection that never says hello is reaped like any idle one.
    let mut greeted = false;
    let mut last_frame = Instant::now();
    loop {
        match read_frame(reader, buf)? {
            FrameRead::Frame => {}
            FrameRead::CleanEof => return Ok(()),
            FrameRead::TimedOut => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return Ok(());
                }
                // Idle reaping: quiet *and* nothing in flight for the
                // whole idle window — a healthy-but-slow client with work
                // outstanding is never reaped.
                if let Some(idle) = shared.idle_timeout {
                    if inflight.load(Ordering::SeqCst) == 0 && last_frame.elapsed() >= idle {
                        return Ok(());
                    }
                }
                continue;
            }
        }
        last_frame = Instant::now();
        // Stage timing starts at frame receipt; everything up to the
        // enqueue counts as the admission stage.
        let received = last_frame;

        // The hello comes first and only once: any other opener fails
        // `decode_hello`, a second hello the opcode dispatch below. A
        // version-mismatched client still gets the HelloOk (so it can
        // report *our* version), then the door.
        if !greeted {
            let theirs = wire::decode_hello(buf)?;
            reply(&wire::encode_hello_ok(&shared.datasets))?;
            if theirs != PROTOCOL_VERSION {
                return Ok(());
            }
            greeted = true;
            continue;
        }

        // Dispatch by opcode: health probes and metrics scrapes answer
        // inline (both must keep working while draining, so operators can
        // watch a drain finish); anything else is an estimate batch.
        match buf.first().copied() {
            Some(wire::OP_HEALTH) => {
                wire::decode_health(buf)?;
                reply(&wire::encode_health_ok(&health_report(shared)))?;
                continue;
            }
            Some(wire::OP_METRICS) => {
                wire::decode_metrics(buf)?;
                reply(&wire::encode_metrics_ok(&shared.metrics_text()))?;
                continue;
            }
            // An empty frame fails the batch decoder's opcode read.
            Some(wire::OP_ESTIMATE_BATCH) | None => {}
            Some(tag) => {
                return Err(wire::WireError::BadTag {
                    what: "opcode",
                    tag,
                }
                .into())
            }
        }
        let batch = wire::decode_estimate_batch(buf)?;
        let id = batch.request_id;

        // A duplicate in-flight id would cross-wire two responses; that is
        // a client bug, and the protocol answer is to drop the connection.
        // Checked before *every* reply path — including the rejects and
        // the empty-batch fast path, which never touch `pending`.
        if pending.lock().expect("pending").contains_key(&id) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("request id {id} reused while in flight"),
            ));
        }

        // Draining: in-flight work finishes, but nothing new is admitted —
        // the explicit rejection tells the client to fail over now rather
        // than discover the close mid-batch.
        if shared.draining.load(Ordering::SeqCst) {
            reject(
                id,
                RejectReason::ShuttingDown,
                "server is draining; fail over to another replica",
            )?;
            continue;
        }

        let Some(shard) = shared.shards.get(&batch.dataset) else {
            reject(
                id,
                RejectReason::UnknownDataset,
                &format!("no shard serves dataset {:?}", batch.dataset),
            )?;
            continue;
        };

        // Admission check 1: the per-client in-flight quota. Only this
        // reader thread increments, so load-then-add does not race.
        if inflight.load(Ordering::SeqCst) >= shared.max_inflight {
            shard.record_admission_rejection(batch.queries.len());
            reject(
                id,
                RejectReason::QuotaExceeded,
                &format!("client quota is {} in-flight batches", shared.max_inflight),
            )?;
            continue;
        }

        if batch.queries.is_empty() {
            reply(&wire::encode_batch_result(id, &[]))?;
            continue;
        }

        // The wire deadline is a relative budget from receipt; workers
        // shed any query still unclaimed past it instead of estimating for
        // a caller that has stopped waiting.
        let deadline =
            (batch.deadline_ms > 0).then(|| received + Duration::from_millis(batch.deadline_ms));

        // Admission check 2: non-blocking, all-or-nothing enqueue. A full
        // queue sheds the whole batch back to the client instead of
        // wedging this thread (and with it the connection).
        let requests: Vec<EstimateRequest> = batch
            .queries
            .into_iter()
            .map(|q| {
                let mut request = EstimateRequest::new(q).with_min_size(batch.min_size);
                if let Some(deadline) = deadline {
                    request = request.with_deadline(deadline);
                }
                request
            })
            .collect();

        let admission_ns = elapsed_ns(received);
        let stats = Arc::clone(shard.stats_inner());
        stats.record_stage(Stage::Admission, admission_ns);
        pending.lock().expect("pending").insert(
            id,
            PendingBatch {
                trace_id: batch.trace_id,
                dataset: batch.dataset,
                received,
                admission_ns,
                stats,
            },
        );
        // Count the batch against the quota *before* it can possibly
        // complete: a fast worker pool could otherwise finish the batch
        // and run the collector's decrement before a post-enqueue
        // increment, wrapping the counter to usize::MAX and wedging the
        // quota shut for the rest of the connection.
        inflight.fetch_add(1, Ordering::SeqCst);
        match shard.offer_tagged(requests, id, tx) {
            Ok(()) => {}
            Err(rejected) => {
                inflight.fetch_sub(1, Ordering::SeqCst);
                pending.lock().expect("pending").remove(&id);
                let message = format!(
                    "batch of {} refused: {}",
                    rejected.requests.len(),
                    rejected.reason
                );
                reject(id, rejected.reason, &message)?;
            }
        }
    }
}

fn collector_loop(
    rx: mpsc::Receiver<Reply>,
    pending: &Mutex<HashMap<u64, PendingBatch>>,
    writer: &Mutex<TcpStream>,
    inflight: &AtomicUsize,
    slowlog: &SlowLog,
) {
    // One wake-up per batch: the shard service replies once, with every
    // query's result in submission order.
    while let Ok((tag, results)) = rx.recv() {
        let Some(entry) = pending.lock().expect("pending").remove(&tag) else {
            continue;
        };

        let encode_started = Instant::now();
        let served = encode_served(tag, results);
        let encode_ns = elapsed_ns(encode_started);

        inflight.fetch_sub(1, Ordering::SeqCst);
        // A write failure means the client left (or timed out draining);
        // shut the socket so the reader thread sees it too, and keep
        // draining replies so shard shutdown never waits on them.
        let write_started = Instant::now();
        {
            let mut w = writer.lock().expect("writer");
            if write_frame(&mut *w, &served.frame).is_err() {
                let _ = w.shutdown(std::net::Shutdown::Both);
            }
        }
        let socket_write_ns = elapsed_ns(write_started);

        entry.stats.record_stage(Stage::Encode, encode_ns);
        entry
            .stats
            .record_stage(Stage::SocketWrite, socket_write_ns);
        let mut stages = StageBreakdown::new();
        stages.set(Stage::Admission, entry.admission_ns);
        stages.set(Stage::QueueWait, served.queue_wait_ns);
        stages.set(Stage::Estimation, served.estimation_ns);
        stages.set(Stage::Encode, encode_ns);
        stages.set(Stage::SocketWrite, socket_write_ns);
        slowlog.offer(SlowQuery {
            trace_id: entry.trace_id,
            dataset: entry.dataset,
            subplans: served.subplans,
            total_ns: elapsed_ns(entry.received),
            stages,
        });
    }
}

/// A served batch as the wire and the slowlog see it.
struct ServedBatch {
    frame: Vec<u8>,
    /// Sub-plan estimates produced, summed across served queries.
    subplans: usize,
    /// Worst per-query queue wait (queries wait concurrently, so the max —
    /// not the sum — is the wall-clock the batch spent queued).
    queue_wait_ns: u64,
    /// Estimation time summed across queries (CPU spent on the batch).
    estimation_ns: u64,
}

/// Turns a shard service's reply into the batch's response frame: a
/// `BatchResult` with one slot per query, or — if any query expired
/// unserved — a single [`RejectReason::DeadlineExceeded`] rejection (a
/// response assembled past its deadline is dead weight on the wire).
fn encode_served(tag: u64, results: Vec<Result<EstimateResponse, ServiceError>>) -> ServedBatch {
    let (mut expired, mut subplans, mut queue_wait_ns, mut estimation_ns) = (false, 0, 0, 0);
    let results: Vec<Result<WireEstimates, String>> = results
        .into_iter()
        .map(|result| match result {
            Ok(resp) => {
                subplans += resp.estimates.len();
                queue_wait_ns = queue_wait_ns.max(duration_ns(resp.queue_wait));
                estimation_ns += duration_ns(resp.estimate_time);
                Ok(WireEstimates {
                    model_epoch: resp.model_epoch,
                    estimates: resp.estimates,
                })
            }
            Err(err) => {
                expired |= err == ServiceError::DeadlineExceeded;
                Err(err.to_string())
            }
        })
        .collect();
    let frame = if expired {
        wire::encode_rejected(
            tag,
            RejectReason::DeadlineExceeded,
            "deadline expired before the batch was fully served",
        )
    } else {
        enforce_frame_cap(tag, wire::encode_batch_result(tag, &results))
    };
    ServedBatch {
        frame,
        subplans,
        queue_wait_ns,
        estimation_ns,
    }
}

/// Nanoseconds since `since`, saturating (histograms record `u64` ns).
fn elapsed_ns(since: Instant) -> u64 {
    duration_ns(since.elapsed())
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Snapshot for a health probe: draining state plus every shard's queue
/// depth and published model epoch, in dataset order.
fn health_report(shared: &ServerShared) -> wire::HealthReport {
    let shards = shared
        .datasets
        .iter()
        .map(|name| {
            let shard = &shared.shards[name];
            wire::ShardHealth {
                dataset: name.clone(),
                model_epoch: shard.registry().get(name).map_or(0, |handle| handle.epoch),
                queue_depth: shard.queue_depth().min(u32::MAX as usize) as u32,
                queue_capacity: shard.queue_capacity().min(u32::MAX as usize) as u32,
            }
        })
        .collect();
    wire::HealthReport {
        draining: shared.draining.load(Ordering::SeqCst),
        shards,
    }
}

/// Enforces [`MAX_FRAME_LEN`] on an outgoing batch result. A response too
/// large to frame (a valid ≤64 MiB request can ask for far more than
/// 64 MiB of estimates) must not reach the socket — the client would abort
/// the whole connection over it — so it is replaced by a small
/// [`RejectReason::ResponseTooLarge`] rejection telling the client to
/// split the batch.
fn enforce_frame_cap(tag: u64, frame: Vec<u8>) -> Vec<u8> {
    if frame.len() <= MAX_FRAME_LEN as usize {
        return frame;
    }
    wire::encode_rejected(
        tag,
        RejectReason::ResponseTooLarge,
        &format!(
            "encoded batch result of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame cap; \
             split the batch into smaller requests",
            frame.len()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ClientConfig, FjClient, RetryPolicy};
    use factorjoin::{BaseEstimatorKind, BinBudget, FactorJoinConfig};
    use fj_datagen::{stats_catalog, stats_ceb_workload, StatsConfig, WorkloadConfig};
    use fj_query::Query;
    use std::io::Write;

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

    fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !cond() {
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for {what}"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    #[test]
    fn oversized_batch_result_is_replaced_by_a_rejection_frame() {
        let small = wire::encode_batch_result(7, &[]);
        assert_eq!(
            enforce_frame_cap(7, small.clone()),
            small,
            "fits: untouched"
        );

        let frame = enforce_frame_cap(9, vec![0u8; MAX_FRAME_LEN as usize + 1]);
        assert!(
            frame.len() <= MAX_FRAME_LEN as usize,
            "the replacement fits"
        );
        let (id, reason, message) = wire::decode_rejected(&frame).expect("a rejection frame");
        assert_eq!(id, 9);
        assert_eq!(reason, RejectReason::ResponseTooLarge);
        assert!(message.contains("split"), "actionable message: {message}");
    }

    /// One reply in, one frame out: slot errors travel inside a
    /// `BatchResult`, but a batch any of whose queries expired unserved is
    /// a single `DeadlineExceeded` rejection however many were served.
    #[test]
    fn a_partly_expired_batch_is_one_deadline_rejection_frame() {
        let ok = |subplans: usize, queue_us: u64, estimate_us: u64| {
            Ok(EstimateResponse {
                estimates: (0..subplans).map(|i| (1 << i, 2.5)).collect(),
                dataset: Arc::from("stats"),
                model_epoch: 4,
                worker: 0,
                queue_wait: Duration::from_micros(queue_us),
                estimate_time: Duration::from_micros(estimate_us),
            })
        };
        let unknown = || Err(ServiceError::UnknownDataset("nope".into()));

        let served = encode_served(9, vec![ok(2, 30, 5), unknown(), ok(3, 10, 7)]);
        let (id, results) = wire::decode_batch_result(&served.frame).expect("a result frame");
        assert_eq!((id, results.len()), (9, 3));
        assert_eq!(results[0].as_ref().expect("served").model_epoch, 4);
        assert!(results[1].as_ref().unwrap_err().contains("nope"));
        assert_eq!(
            (served.subplans, served.queue_wait_ns, served.estimation_ns),
            (5, 30_000, 12_000),
            "sub-plans and estimation sum, queue wait is the worst slot"
        );

        let expired = || Err(ServiceError::DeadlineExceeded);
        let served = encode_served(9, vec![ok(2, 30, 5), ok(1, 1, 1), ok(1, 1, 1), expired()]);
        let (id, reason, _) = wire::decode_rejected(&served.frame).expect("a rejection frame");
        assert_eq!((id, reason), (9, RejectReason::DeadlineExceeded));
    }

    /// Pull `key=<digits>` out of a slowlog line.
    fn slowlog_field(line: &str, key: &str) -> u64 {
        let needle = format!(" {key}=");
        let start = line.find(&needle).unwrap_or_else(|| {
            panic!("slowlog line is missing {key}: {line}");
        }) + needle.len();
        line[start..]
            .split(|c: char| c.is_whitespace())
            .next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("unparsable {key} in: {line}"))
    }

    /// The observability plane's headline check: a traced batch that
    /// spends its life queued is pinned to queue wait. The shard's only
    /// worker picks up a one-query blocker and waits at its model lookup
    /// until `hold` drops, so the traced batch and two followers sit in the
    /// queue for the whole hold, however the threads are scheduled. The
    /// metrics are scraped **over the wire**, and the slow-query log
    /// carries the client-minted trace id.
    #[test]
    fn traced_queue_delayed_batch_is_pinned_to_queue_wait() {
        let (model, wl) = tiny_setup();
        let server = FjServer::bind(
            "127.0.0.1:0",
            vec![ShardSpec::new("stats", model)],
            ServerConfig::new(1).with_slowlog_capacity(8),
        )
        .expect("bind");
        let mut client = FjClient::connect(server.local_addr()).expect("connect");
        let shard = || server.stats("stats").expect("shard");

        let hold = crate::registry::tests::hold_lookups(server.registry("stats").expect("shard"));
        let blocker = client.send("stats", 1, &wl[..1]).expect("send blocker");
        wait_until("the worker to pick up the blocker", || {
            let s = shard();
            s.queue_high_water >= 1 && s.queue_depth == 0
        });
        let (traced_id, trace_id) = client
            .send_traced("stats", 1, &wl[..1])
            .expect("send traced");
        assert_ne!(trace_id, 0, "a minted trace id is never the untraced 0");
        let followers: Vec<u64> = (0..2)
            .map(|_| client.send("stats", 1, &wl[..1]).expect("send follower"))
            .collect();
        wait_until("three batches queued behind the blocker", || {
            shard().queue_depth == 3
        });
        std::thread::sleep(Duration::from_millis(50));
        drop(hold);

        for id in std::iter::once(blocker).chain(followers) {
            assert!(matches!(
                client.recv(id).expect("recv"),
                wire::BatchOutcome::Served(_)
            ));
        }
        match client.recv(traced_id).expect("recv traced") {
            wire::BatchOutcome::Served(results) => assert_eq!(results.len(), 1),
            other => panic!("the traced batch was not served: {other:?}"),
        }

        // Scrape over the wire (the same text `metrics_text` returns). The
        // collector records the encode/socket_write stages *after* writing
        // a response, so poll until the metrics plane settles.
        let mut text = client.metrics().expect("scrape");
        wait_until("the wire scrape to match the in-process one", || {
            text = client.metrics().expect("scrape");
            text == server.metrics_text()
        });

        // The exposition covers counters, the latency histogram, and every
        // serving stage under one family.
        assert!(text.contains("# TYPE fj_requests_total counter"), "{text}");
        assert!(text.contains("# TYPE fj_request_latency_seconds histogram"));
        assert!(text.contains("# TYPE fj_stage_duration_seconds histogram"));
        for stage in [
            "admission",
            "queue_wait",
            "estimation",
            "encode",
            "socket_write",
        ] {
            let series =
                format!("fj_stage_duration_seconds_count{{dataset=\"stats\",stage=\"{stage}\"}}");
            assert!(text.contains(&series), "missing {series} in:\n{text}");
        }

        // The traced batch's slowlog entry: present, attributed to our
        // trace, and dominated by queue wait. The collector offers it
        // *after* writing the reply frame, so poll for it.
        let needle = format!("trace_id={trace_id:#018x}");
        let traced_line = |text: &str| {
            text.lines()
                .find(|l| l.starts_with("# slowlog") && l.contains(&needle))
                .map(str::to_string)
        };
        wait_until("the traced batch's slowlog entry", || {
            text = client.metrics().expect("scrape");
            traced_line(&text).is_some()
        });
        let line = traced_line(&text).expect("the poll above found it");
        assert!(line.contains("dataset=\"stats\""), "{line}");
        assert!(line.ends_with("dominant=queue_wait"), "{line}");
        let queue_wait = slowlog_field(&line, "queue_wait_ns");
        let estimation = slowlog_field(&line, "estimation_ns");
        assert!(
            queue_wait >= 50_000_000 && queue_wait > estimation,
            "queued for the whole hold, queue wait ({queue_wait}ns) must dwarf \
             the one-query estimation ({estimation}ns): {line}"
        );

        // The aggregate stage histograms agree: three batches queued for the
        // hold, and only the blocker's estimation spans it.
        let stage_sum = |stage: &str| -> f64 {
            let series =
                format!("fj_stage_duration_seconds_sum{{dataset=\"stats\",stage=\"{stage}\"}}");
            let line = text
                .lines()
                .find(|l| l.starts_with(&series))
                .unwrap_or_else(|| panic!("missing {series}"));
            line.rsplit(' ').next().unwrap().parse().expect("a float")
        };
        assert!(stage_sum("queue_wait") > stage_sum("estimation"));
        server.shutdown();
    }

    /// The admission-control acceptance criterion: a client past its
    /// in-flight quota observes an explicit rejection — not a hang — and
    /// the quota frees up once the in-flight batch completes.
    #[test]
    fn quota_exceeded_is_rejected_not_hung() {
        let (model, queries) = tiny_setup();
        let server = FjServer::bind(
            "127.0.0.1:0",
            vec![ShardSpec::new("stats", model)],
            ServerConfig::new(1)
                .with_queue_capacity(queries.len())
                .with_max_inflight(1),
        )
        .expect("bind");
        let mut client = FjClient::connect(server.local_addr()).expect("connect");

        // The shard's only worker waits at its model lookup until `hold`
        // drops, so the first batch is still in flight when the second
        // arrives, however the threads are scheduled.
        let hold = crate::registry::tests::hold_lookups(server.registry("stats").expect("shard"));
        let id_inflight = client.send("stats", 1, &queries).expect("send in-flight");
        let id_over = client
            .send("stats", 1, &queries[..3])
            .expect("send over-quota");

        // The rejection lands while the first batch is still in flight.
        match client.recv(id_over).expect("recv over-quota") {
            wire::BatchOutcome::Rejected { reason, message } => {
                assert_eq!(reason, RejectReason::QuotaExceeded);
                assert!(message.contains('1'), "message names the quota: {message}");
            }
            wire::BatchOutcome::Served(_) => {
                panic!("over-quota request was served, not rejected")
            }
        }
        drop(hold);
        // The in-flight batch itself is unaffected by the rejection.
        match client.recv(id_inflight).expect("recv in-flight") {
            wire::BatchOutcome::Served(results) => {
                assert_eq!(results.len(), queries.len());
                assert!(results.iter().all(|r| r.is_ok()));
            }
            other => panic!("in-flight batch lost: {other:?}"),
        }
        // Quota released on completion: the retry goes through.
        match client.call("stats", 1, &queries[..1]).expect("retry") {
            wire::BatchOutcome::Served(results) => assert_eq!(results.len(), 1),
            other => panic!("post-completion retry rejected: {other:?}"),
        }

        let snap = server.stats("stats").expect("shard stats");
        assert_eq!(
            snap.rejected, 3,
            "the quota rejection counts the batch's queries, like shed"
        );
        assert_eq!(snap.shed, 0);
        server.shutdown();
    }

    /// Regression for the empty-batch fast path skipping the duplicate-id
    /// check: reusing an in-flight id — even with an empty batch — must
    /// drop the connection, never produce two responses with one tag.
    #[test]
    fn empty_batch_reusing_an_in_flight_id_drops_the_connection() {
        let (model, wl) = tiny_setup();
        let server = FjServer::bind(
            "127.0.0.1:0",
            vec![ShardSpec::new("stats", model)],
            ServerConfig::new(1).with_queue_capacity(wl.len()),
        )
        .expect("bind");

        let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
        let mut reader = BufReader::new(sock.try_clone().expect("clone"));
        let mut buf = Vec::new();
        write_frame(&mut sock, &wire::encode_hello()).unwrap();
        assert_eq!(read_frame(&mut reader, &mut buf).unwrap(), FrameRead::Frame);
        wire::decode_hello_ok(&buf).expect("hello ok");

        // Reuse id 7 while it is in flight, via the empty-batch fast path.
        // The shard's only worker waits at its model lookup until `hold`
        // drops, so id 7 is still in flight when the reader reaches the
        // reuse, however the threads are scheduled; the hold ends once
        // the reader has stopped and deregistered the connection.
        let hold = crate::registry::tests::hold_lookups(server.registry("stats").expect("shard"));
        let mut frames = Vec::new();
        for batch in [&wl[..], &[]] {
            let payload = wire::encode_estimate_batch(7, "stats", 1, batch, 0, 0);
            write_frame(&mut frames, &payload).unwrap();
        }
        sock.write_all(&frames).unwrap();
        wait_until("the reader to drop the connection", || {
            server
                .shared
                .conn_streams
                .lock()
                .expect("conn list")
                .is_empty()
        });
        drop(hold);

        // The in-flight batch still resolves (exactly one response for id
        // 7), then the connection is dropped instead of answered twice.
        assert_eq!(read_frame(&mut reader, &mut buf).unwrap(), FrameRead::Frame);
        let (id, results) = wire::decode_batch_result(&buf).expect("the in-flight batch");
        assert_eq!(id, 7);
        assert_eq!(results.len(), wl.len());
        assert_eq!(
            read_frame(&mut reader, &mut buf).expect("clean close"),
            FrameRead::CleanEof,
            "the id reuse must drop the connection, not answer"
        );
        server.shutdown();
    }

    /// A 100 KB frame of nested NOT tags used to overflow the reader's
    /// stack and abort the server. Now its connection is dropped like any
    /// other malformed frame's, and the server goes on serving.
    #[test]
    fn a_filter_nested_past_the_cap_drops_only_its_connection() {
        let (model, wl) = tiny_setup();
        let server = FjServer::bind(
            "127.0.0.1:0",
            vec![ShardSpec::new("stats", model)],
            ServerConfig::new(1),
        )
        .expect("bind");

        let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
        let mut reader = BufReader::new(sock.try_clone().expect("clone"));
        let mut buf = Vec::new();
        write_frame(&mut sock, &wire::encode_hello()).unwrap();
        assert_eq!(read_frame(&mut reader, &mut buf).unwrap(), FrameRead::Frame);
        wire::decode_hello_ok(&buf).expect("hello ok");
        write_frame(&mut sock, &wire::tests::nested_not_batch(100_000)).unwrap();
        assert_eq!(
            read_frame(&mut reader, &mut buf).expect("clean close"),
            FrameRead::CleanEof,
            "a malformed frame drops the connection"
        );

        let mut client = FjClient::connect(server.local_addr()).expect("second client");
        match client.call("stats", 1, &wl).expect("served") {
            wire::BatchOutcome::Served(results) => {
                assert_eq!(results.len(), wl.len());
                assert!(results.iter().all(|r| r.is_ok()));
            }
            other => panic!("the second client was not served: {other:?}"),
        }
        server.shutdown();
    }

    /// A < 1 KB frame holding a 63-leaf star (2⁶³ + 63 connected sub-plans)
    /// used to make its worker enumerate until memory ran out. Now the
    /// reader refuses it while decoding (`TooManySubplans`, see the wire
    /// tests): the connection is dropped promptly, the process's peak RSS
    /// does not grow, and the server goes on serving.
    #[test]
    fn a_star_past_the_subplan_cap_drops_only_its_connection() {
        let (model, wl) = tiny_setup();
        let server = FjServer::bind(
            "127.0.0.1:0",
            vec![ShardSpec::new("stats", model)],
            ServerConfig::new(1),
        )
        .expect("bind");
        let peak_rss_kib = || -> Option<u64> {
            let status = std::fs::read_to_string("/proc/self/status").ok()?;
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        };

        let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
        let mut reader = BufReader::new(sock.try_clone().expect("clone"));
        let mut buf = Vec::new();
        write_frame(&mut sock, &wire::encode_hello()).unwrap();
        assert_eq!(read_frame(&mut reader, &mut buf).unwrap(), FrameRead::Frame);
        wire::decode_hello_ok(&buf).expect("hello ok");
        let rss_before = peak_rss_kib();
        let started = std::time::Instant::now();
        write_frame(&mut sock, &wire::tests::star_batch(63)).unwrap();
        assert_eq!(
            read_frame(&mut reader, &mut buf).expect("clean close"),
            FrameRead::CleanEof,
            "the refused frame drops the connection"
        );
        let elapsed = started.elapsed();
        assert!(elapsed.as_secs() < 5, "dropped after {elapsed:?}");
        if let (Some(before), Some(after)) = (rss_before, peak_rss_kib()) {
            assert!(after - before < 64 << 10, "peak RSS {before} → {after} KiB");
        }
        assert_eq!(server.stats("stats").expect("shard").requests, 0);

        let mut client = FjClient::connect(server.local_addr()).expect("second client");
        match client.call("stats", 1, &wl).expect("served") {
            wire::BatchOutcome::Served(results) => {
                assert_eq!(results.len(), wl.len());
                assert!(results.iter().all(|r| r.is_ok()));
            }
            other => panic!("the second client was not served: {other:?}"),
        }
        server.shutdown();
    }

    /// The handshake is exact-match: a client of another version gets the
    /// server's `HelloOk` (so it can name the mismatch), then a clean
    /// close, and nothing it sends afterwards is answered — a version-4
    /// client, whose hello holds its version as a fixed `u32`, and one of
    /// the next version alike.
    #[test]
    fn a_client_of_another_version_gets_hello_ok_then_a_close() {
        let (model, wl) = tiny_setup();
        let server = FjServer::bind(
            "127.0.0.1:0",
            vec![ShardSpec::new("stats", model)],
            ServerConfig::new(1),
        )
        .expect("bind");

        let mut next = wire::begin(wire::OP_HELLO);
        next.varint((PROTOCOL_VERSION + 1).into());
        let version_4 = [wire::OP_HELLO, 4, 0, 0, 0];
        for hello in [version_4.to_vec(), next.finish()] {
            let mut sock = TcpStream::connect(server.local_addr()).expect("connect");
            let mut reader = BufReader::new(sock.try_clone().expect("clone"));
            let mut buf = Vec::new();
            write_frame(&mut sock, &hello).unwrap();
            assert_eq!(read_frame(&mut reader, &mut buf).unwrap(), FrameRead::Frame);
            // Decoding succeeds only if the server names its own version.
            let datasets = wire::decode_hello_ok(&buf).expect("hello ok");
            assert_eq!(datasets, ["stats"]);
            assert_eq!(
                read_frame(&mut reader, &mut buf).unwrap(),
                FrameRead::CleanEof,
                "then a clean close"
            );

            // The socket is closed: a batch sent now is never answered.
            let batch = wire::encode_estimate_batch(1, "stats", 1, &wl[..1], 0, 0);
            let _ = write_frame(&mut sock, &batch);
            assert!(!matches!(
                read_frame(&mut reader, &mut buf),
                Ok(FrameRead::Frame)
            ));
        }
        assert_eq!(server.stats("stats").expect("shard").requests, 0);
        server.shutdown();
    }

    /// Regression for the per-connection fd/handle leak: a disconnecting
    /// client's stream registration and thread handle are reclaimed while
    /// the server keeps running, not only at shutdown.
    #[test]
    fn disconnected_clients_are_deregistered_and_reaped() {
        let (model, wl) = tiny_setup();
        let server = FjServer::bind(
            "127.0.0.1:0",
            vec![ShardSpec::new("stats", model)],
            ServerConfig::new(1),
        )
        .expect("bind");

        {
            let mut client = FjClient::connect(server.local_addr()).expect("connect");
            let outcome = client.call("stats", 1, &wl[..1]).expect("roundtrip");
            assert!(matches!(outcome, wire::BatchOutcome::Served(_)));
        } // dropping the client disconnects it

        // The connection thread deregisters itself: its duplicated fd
        // leaves the registry and its id lands on the reap list.
        wait_until("the dead connection to deregister", || {
            server
                .shared
                .conn_streams
                .lock()
                .expect("conn list")
                .is_empty()
                && !server
                    .shared
                    .finished_conns
                    .lock()
                    .expect("finished")
                    .is_empty()
        });
        assert_eq!(server.conn_threads.lock().expect("threads").len(), 1);

        // The next accepted connection reaps the dead one's handle, so the
        // thread registry holds live connections only.
        let _client2 = FjClient::connect(server.local_addr()).expect("reconnect");
        wait_until("the dead connection's handle to be reaped", || {
            server
                .shared
                .finished_conns
                .lock()
                .expect("finished")
                .is_empty()
                && server.conn_threads.lock().expect("threads").len() == 1
        });
        server.shutdown();
    }

    /// The end-to-end deadline: a client whose budget is too small for the
    /// queue wait gets its call bounded client-side, and the server sheds
    /// the expired work instead of estimating for nobody — visible as the
    /// `expired` counter. The worker and the quota slots survive.
    #[test]
    fn expired_deadlines_are_shed_and_counted() {
        let (model, queries) = tiny_setup();
        let big: Vec<Query> = std::iter::repeat_with(|| queries.iter().cloned())
            .take(4)
            .flatten()
            .collect();
        let server = FjServer::bind(
            "127.0.0.1:0",
            vec![ShardSpec::new("stats", model)],
            ServerConfig::new(1).with_queue_capacity(big.len() + 8),
        )
        .expect("bind");
        let addr = server.local_addr();
        let mut blocker = FjClient::connect(addr).expect("connect blocker");
        // The hurried client: a 5 ms budget, connected before the hold so
        // its handshake cannot eat into it.
        let mut hurried = FjClient::connect_with(
            addr,
            ClientConfig::default().with_request_timeout(Some(Duration::from_millis(5))),
        )
        .expect("connect hurried");

        // The shard's only worker waits at its model lookup until `hold`
        // drops, so the hurried batch expires in the queue behind the
        // blocker's however the threads are scheduled. (A health probe
        // reads the registry too, so the queue depth is read in-process.)
        let hold = crate::registry::tests::hold_lookups(server.registry("stats").expect("shard"));
        let id_big = blocker.send("stats", 1, &big).expect("send big");
        let shard = &server.shared.shards["stats"];
        wait_until("the blocker's batch to be queued", || {
            shard.queue_depth() + 1 >= big.len()
        });

        let started = Instant::now();
        let result = hurried.call("stats", 1, &queries[..3]);
        let elapsed = started.elapsed();
        // Bounded: the deadline plus generous scheduling slack, never the
        // blocker's completion time.
        assert!(
            elapsed < Duration::from_secs(10),
            "deadline-bounded call took {elapsed:?}"
        );
        match result {
            // Socket read timeouts surface as WouldBlock (EAGAIN) on Linux
            // and TimedOut elsewhere; the call-level budget check reports
            // TimedOut.
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
                ),
                "unexpected: {e}"
            ),
            Ok(wire::BatchOutcome::Rejected { reason, .. }) => {
                // Raced the worker: the server noticed the expiry first.
                assert_eq!(reason, RejectReason::DeadlineExceeded);
            }
            Ok(wire::BatchOutcome::Served(_)) => {
                panic!("a 5 ms budget cannot outlast a held worker")
            }
        }
        // The server's deadline runs from frame receipt, which precedes
        // the enqueue seen here; release the worker only once it has
        // passed, so every hurried query is claimed expired.
        wait_until("the hurried batch to be queued", || {
            shard.queue_depth() + 1 >= big.len() + 3
        });
        let expired_by = Instant::now() + Duration::from_millis(5);
        wait_until("the hurried deadline to pass", || {
            Instant::now() > expired_by
        });
        drop(hold);

        // The blocker's own batch is unaffected.
        match blocker.recv(id_big).expect("recv big") {
            wire::BatchOutcome::Served(results) => assert_eq!(results.len(), big.len()),
            other => panic!("big batch lost: {other:?}"),
        }

        // The worker shed the expired queries without estimating them.
        wait_until("the expired counter to reach 3", || {
            server.stats("stats").expect("shard stats").expired >= 3
        });

        // And the service is fully live afterwards: a clean client is served.
        let mut clean = FjClient::connect(addr).expect("connect clean");
        match clean.call("stats", 1, &queries[..2]).expect("roundtrip") {
            wire::BatchOutcome::Served(results) => {
                assert_eq!(results.len(), 2);
                assert!(results.iter().all(|r| r.is_ok()));
            }
            other => panic!("post-expiry batch rejected: {other:?}"),
        }
        server.shutdown();
    }

    /// The server reaps connections idle past the configured window; a
    /// client with retries reconnects transparently on its next call.
    #[test]
    fn idle_connections_are_reaped_and_reconnect() {
        let (model, queries) = tiny_setup();
        let server = FjServer::bind(
            "127.0.0.1:0",
            vec![ShardSpec::new("stats", model)],
            ServerConfig::new(1)
                .with_read_timeout(Some(Duration::from_millis(25)))
                .with_idle_timeout(Some(Duration::from_millis(100))),
        )
        .expect("bind");
        let mut client = FjClient::connect_with(
            server.local_addr(),
            ClientConfig::default().with_retry(RetryPolicy::retries(3)),
        )
        .expect("connect");
        match client.call("stats", 1, &queries[..1]).expect("warm-up") {
            wire::BatchOutcome::Served(_) => {}
            other => panic!("warm-up rejected: {other:?}"),
        }

        // Go quiet until the server has reaped the connection: its reader
        // leaves `conn_streams` when it ends.
        wait_until("the idle connection to be reaped", || {
            server
                .shared
                .conn_streams
                .lock()
                .expect("conn list")
                .is_empty()
        });

        // The next call hits the dead socket, reconnects, and is served.
        match client
            .call("stats", 1, &queries[..1])
            .expect("post-idle call")
        {
            wire::BatchOutcome::Served(results) => assert_eq!(results.len(), 1),
            other => panic!("post-idle call rejected: {other:?}"),
        }
        assert!(client.is_connected());
        server.shutdown();
    }
}
