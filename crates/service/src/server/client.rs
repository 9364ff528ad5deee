//! [`FjClient`]: a pipelining TCP client for [`super::FjServer`] with
//! deadlines, reconnect, and opt-in retries.

use super::retry::RetryPolicy;
use super::wire::{
    self, read_frame, write_frame, BatchOutcome, FrameRead, HealthReport, WireError, MAX_FRAME_LEN,
    OP_BATCH_RESULT, OP_REJECTED, PROTOCOL_VERSION,
};
use fj_obs::next_trace_id;
use fj_query::Query;
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Client-side resilience knobs.
///
/// The defaults bound every operation (5 s to connect, 30 s per request)
/// but retry nothing — rejections and transport errors stay visible to
/// the caller unless a [`RetryPolicy`] is opted into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientConfig {
    /// TCP connect budget; `None` blocks on the OS default.
    pub connect_timeout: Option<Duration>,
    /// Per-call budget, covering socket reads/writes, the wire
    /// `deadline_ms` sent to the server, and — for [`FjClient::call`] —
    /// every retry and backoff within the call. `None` disables deadlines
    /// entirely (calls may block indefinitely on a stalled peer).
    pub request_timeout: Option<Duration>,
    /// What to retry and how to back off; [`RetryPolicy::none`] by
    /// default. Retrying is idempotent-safe: estimation is read-only.
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(5)),
            request_timeout: Some(Duration::from_secs(30)),
            retry: RetryPolicy::none(),
        }
    }
}

impl ClientConfig {
    /// Overrides the connect budget.
    pub fn with_connect_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.connect_timeout = timeout;
        self
    }

    /// Overrides the per-call budget.
    pub fn with_request_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.request_timeout = timeout;
        self
    }

    /// Opts into retrying with `policy`.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }
}

/// Per-connection state, dropped wholesale when the transport errors —
/// after any I/O failure the stream may be mid-frame, and resynchronizing
/// a length-prefixed protocol is impossible, so the only safe recovery is
/// a fresh connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    stash: HashMap<u64, BatchOutcome>,
    frame: Vec<u8>,
}

/// A server→client frame: a batch reply, decoded, or any other frame —
/// a control reply (`HealthOk`/`MetricsOk`) when a probe awaits one — left
/// undecoded in [`Conn::frame`].
enum Incoming {
    Batch(u64, BatchOutcome),
    Control,
}

/// A connected estimation client.
///
/// Requests are multiplexed: [`FjClient::send`] returns immediately with a
/// request id, any number may be pipelined, and [`FjClient::recv`] collects
/// each response whenever it lands (out-of-order completions are stashed
/// until asked for). [`FjClient::call`] is the one-shot convenience — and
/// the only path that retries, per the configured [`RetryPolicy`]
/// (reconnecting and resending on transport errors, backing off on
/// `Overloaded` rejections, always within the request budget).
///
/// Served estimates are **bit-identical** to an in-process
/// `estimate_subplans` call against the same model — `f64`s cross the wire
/// as raw IEEE-754 bits — and each query's result carries the serving
/// model's registry epoch, so a client that sees the epoch change between
/// responses has detected a hot-swap mid-flight.
pub struct FjClient {
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    conn: Option<Conn>,
    datasets: Vec<String>,
    next_id: u64,
}

impl FjClient {
    /// Connects with [`ClientConfig::default`]: bounded connect and
    /// request times, no retries.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<FjClient> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects and performs the version handshake under `config`.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<FjClient> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ));
        }
        let mut client = FjClient {
            addrs,
            config,
            conn: None,
            datasets: Vec::new(),
            next_id: 1,
        };
        client.ensure_connected()?;
        Ok(client)
    }

    /// Datasets the server announced in the handshake, sorted.
    pub fn datasets(&self) -> &[String] {
        &self.datasets
    }

    /// Whether a live connection is currently held (a failed operation
    /// drops it; the next operation reconnects transparently).
    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    /// Dials (respecting the connect budget), handshakes, and applies the
    /// socket timeouts. No-op when a connection is already up.
    fn ensure_connected(&mut self) -> io::Result<()> {
        if self.conn.is_some() {
            return Ok(());
        }
        let stream = dial(&self.addrs, self.config.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.config.request_timeout)?;
        stream.set_write_timeout(self.config.request_timeout)?;
        let mut writer = stream.try_clone()?;
        let mut reader = BufReader::new(stream);

        write_frame(&mut writer, &wire::encode_hello())?;
        let mut frame = Vec::new();
        read_reply(&mut reader, &mut frame)?;
        let (theirs, datasets) = wire::decode_hello_ok(&frame)?;
        if theirs != PROTOCOL_VERSION {
            return Err(WireError::VersionMismatch { theirs }.into());
        }

        self.datasets = datasets;
        self.conn = Some(Conn {
            reader,
            writer,
            stash: HashMap::new(),
            frame,
        });
        Ok(())
    }

    /// Runs `op` on the live connection and drops the connection if `op`
    /// fails.
    fn with_conn<T>(&mut self, op: impl FnOnce(&mut Conn) -> io::Result<T>) -> io::Result<T> {
        let Some(conn) = self.conn.as_mut() else {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "not connected; any in-flight request died with the previous connection",
            ));
        };
        let result = op(conn);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    /// Sends one estimate batch without waiting for the response; returns
    /// the request id to [`FjClient::recv`] on. `min_size` is the smallest
    /// sub-plan (in aliases) to report, as in `estimate_subplans`. The
    /// configured request budget rides along as the wire deadline, so the
    /// server sheds the work if this client stops waiting.
    pub fn send(&mut self, dataset: &str, min_size: u32, queries: &[Query]) -> io::Result<u64> {
        self.send_with(dataset, min_size, queries, self.budget_deadline(), 0)
    }

    /// [`FjClient::send`] with a freshly minted trace id riding along on
    /// the wire; the server records the batch's per-stage timings under it
    /// and tags its slow-query log entry with it, so a slow response can
    /// be matched to this exact request in a scrape
    /// ([`FjClient::metrics`]). Returns `(request_id, trace_id)`.
    pub fn send_traced(
        &mut self,
        dataset: &str,
        min_size: u32,
        queries: &[Query],
    ) -> io::Result<(u64, u64)> {
        let trace_id = next_trace_id();
        let id = self.send_with(dataset, min_size, queries, self.budget_deadline(), trace_id)?;
        Ok((id, trace_id))
    }

    /// Writes one batch whose wire deadline is the time left before
    /// `deadline`. A frame over [`MAX_FRAME_LEN`] is refused with
    /// `InvalidInput` before anything is written, so the connection stays
    /// up — the twin of the server's response cap.
    fn send_with(
        &mut self,
        dataset: &str,
        min_size: u32,
        queries: &[Query],
        deadline: Option<Instant>,
        trace_id: u64,
    ) -> io::Result<u64> {
        self.ensure_connected()?;
        let id = self.next_id;
        self.next_id += 1;
        let deadline_ms = deadline.map_or(0, |d| {
            (d.saturating_duration_since(Instant::now()).as_millis() as u64).max(1)
        });
        let frame =
            wire::encode_estimate_batch(id, dataset, min_size, queries, deadline_ms, trace_id);
        if frame.len() > MAX_FRAME_LEN as usize {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "encoded batch of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame cap; \
                     split the batch into smaller requests",
                    frame.len()
                ),
            ));
        }
        self.with_conn(|conn| write_frame(&mut conn.writer, &frame))?;
        Ok(id)
    }

    /// Blocks until the response for `request_id` arrives, bounded by the
    /// request budget. Responses for other pipelined requests that land
    /// first are stashed and returned by their own `recv` calls.
    pub fn recv(&mut self, request_id: u64) -> io::Result<BatchOutcome> {
        let deadline = self.budget_deadline();
        self.with_conn(|conn| recv_on(conn, request_id, deadline))
    }

    /// [`FjClient::send`] + [`FjClient::recv`] in one call, with retries.
    ///
    /// Under the configured [`RetryPolicy`], transient failures — transport
    /// errors (reconnect + idempotent resend) and `Overloaded` rejections
    /// (backoff, same connection) — are retried until the policy gives up
    /// or the request budget is spent; the budget covers the *whole* call,
    /// retries and backoff included, and rides to the server as each
    /// attempt's wire deadline. Fatal verdicts (`QuotaExceeded`,
    /// `ShuttingDown`, protocol errors, …) return immediately.
    pub fn call(
        &mut self,
        dataset: &str,
        min_size: u32,
        queries: &[Query],
    ) -> io::Result<BatchOutcome> {
        let deadline = self.budget_deadline();
        // One trace id for the whole call: every retry of this logical
        // request shows up under the same trace server-side.
        let trace_id = next_trace_id();
        let mut attempt: u32 = 0;
        loop {
            let result = self.attempt_call(dataset, min_size, queries, deadline, trace_id);
            let transient = match &result {
                Ok(BatchOutcome::Rejected { reason, .. }) => {
                    RetryPolicy::is_retryable_rejection(*reason)
                }
                Err(e) => RetryPolicy::is_retryable_io(e.kind()),
                Ok(_) => false,
            };
            if !transient {
                return result;
            }
            let Some(backoff) = self.config.retry.backoff(attempt) else {
                return result; // policy exhausted (or never retried)
            };
            attempt += 1;
            if let Some(deadline) = deadline {
                // Don't start a backoff the budget cannot pay for.
                let remaining = deadline.saturating_duration_since(Instant::now());
                if backoff >= remaining {
                    return result;
                }
            }
            std::thread::sleep(backoff);
        }
    }

    /// One send+recv attempt against the shared call deadline.
    fn attempt_call(
        &mut self,
        dataset: &str,
        min_size: u32,
        queries: &[Query],
        deadline: Option<Instant>,
        trace_id: u64,
    ) -> io::Result<BatchOutcome> {
        remaining_budget(deadline)?;
        let id = self.send_with(dataset, min_size, queries, deadline, trace_id)?;
        self.with_conn(|conn| recv_on(conn, id, deadline))
    }

    /// Probes the server: draining state plus per-shard queue depth and
    /// model epoch, bounded by the request budget. Safe to interleave with
    /// pipelined batches — batch replies arriving first are stashed for
    /// their own receiver.
    pub fn health(&mut self) -> io::Result<HealthReport> {
        self.control(&wire::encode_health(), wire::decode_health_ok)
    }

    /// Scrapes the server's metrics plane: the Prometheus text exposition
    /// for every shard followed by `# slowlog` comment lines for the
    /// worst-N batches, bounded by the request budget. Like
    /// [`FjClient::health`], this keeps working while the server drains,
    /// and is safe to interleave with pipelined batches.
    pub fn metrics(&mut self) -> io::Result<String> {
        self.control(&wire::encode_metrics(), wire::decode_metrics_ok)
    }

    /// Writes a control probe and decodes the first control reply with
    /// `decode`, stashing batch replies that land before it. The server
    /// answers probes in order and only probes, and a failed probe drops
    /// the connection, so the first control reply is this probe's.
    fn control<T>(
        &mut self,
        probe: &[u8],
        decode: fn(&[u8]) -> Result<T, WireError>,
    ) -> io::Result<T> {
        let deadline = self.budget_deadline();
        self.ensure_connected()?;
        self.with_conn(|conn| {
            write_frame(&mut conn.writer, probe)?;
            loop {
                match read_incoming(conn, deadline)? {
                    Incoming::Batch(id, outcome) => {
                        conn.stash.insert(id, outcome);
                    }
                    Incoming::Control => return Ok(decode(&conn.frame)?),
                }
            }
        })
    }

    /// The deadline of an operation starting now under the request budget.
    fn budget_deadline(&self) -> Option<Instant> {
        self.config.request_timeout.map(|t| Instant::now() + t)
    }
}

/// Connects to the first address that answers, within `timeout` each.
fn dial(addrs: &[SocketAddr], timeout: Option<Duration>) -> io::Result<TcpStream> {
    let mut last_err = None;
    for addr in addrs {
        let attempt = match timeout {
            Some(t) => TcpStream::connect_timeout(addr, t),
            None => TcpStream::connect(addr),
        };
        match attempt {
            Ok(stream) => return Ok(stream),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.expect("addrs checked non-empty"))
}

/// The time left before `deadline`, erring `TimedOut` once it is spent.
fn remaining_budget(deadline: Option<Instant>) -> io::Result<Option<Duration>> {
    match deadline {
        None => Ok(None),
        Some(deadline) => {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "request budget spent before the response arrived",
                ));
            }
            Ok(Some(remaining))
        }
    }
}

/// Reads one server frame. The client reads only while it awaits a reply,
/// so a close or a quiet socket even at a frame boundary is an error here.
fn read_reply(reader: &mut BufReader<TcpStream>, frame: &mut Vec<u8>) -> io::Result<()> {
    match read_frame(reader, frame)? {
        FrameRead::Frame => Ok(()),
        FrameRead::CleanEof => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection with a reply outstanding",
        )),
        FrameRead::TimedOut => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "no reply from the server within the request budget",
        )),
    }
}

/// Reads one server frame within the deadline; decodes it if it is a
/// batch reply.
fn read_incoming(conn: &mut Conn, deadline: Option<Instant>) -> io::Result<Incoming> {
    if let Some(remaining) = remaining_budget(deadline)? {
        // Re-arm the socket timeout to the *remaining* budget, so a server
        // trickling frames cannot extend the call past its deadline by one
        // whole timeout per frame.
        conn.reader.get_ref().set_read_timeout(Some(remaining))?;
    }
    read_reply(&mut conn.reader, &mut conn.frame)?;
    Ok(match conn.frame.first().copied() {
        Some(OP_BATCH_RESULT) => {
            let (id, results) = wire::decode_batch_result(&conn.frame)?;
            Incoming::Batch(id, BatchOutcome::Served(results))
        }
        Some(OP_REJECTED) => {
            let (id, reason, message) = wire::decode_rejected(&conn.frame)?;
            Incoming::Batch(id, BatchOutcome::Rejected { reason, message })
        }
        _ => Incoming::Control,
    })
}

/// Drains frames until `request_id`'s response lands, stashing other
/// batch replies for their own receiver. No probe is outstanding here, so
/// any other frame is a protocol violation.
fn recv_on(
    conn: &mut Conn,
    request_id: u64,
    deadline: Option<Instant>,
) -> io::Result<BatchOutcome> {
    if let Some(outcome) = conn.stash.remove(&request_id) {
        return Ok(outcome);
    }
    loop {
        match read_incoming(conn, deadline)? {
            Incoming::Batch(id, outcome) if id == request_id => return Ok(outcome),
            Incoming::Batch(id, outcome) => {
                conn.stash.insert(id, outcome);
            }
            Incoming::Control => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "unsolicited non-batch frame while awaiting a batch reply",
                ))
            }
        }
    }
}

// Retry-path tests against a *scripted* server: real servers drain queues
// in microseconds, so transient overload cannot be staged reliably over
// real estimation — instead a hand-rolled peer speaks just enough protocol
// to serve one exact failure sequence per test, deterministically.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RejectReason;
    use fj_query::{CmpOp, FilterExpr, Predicate, TableRef};
    use fj_storage::Value;
    use std::io::BufReader as StdBufReader;
    use std::net::TcpListener;
    use wire::WireEstimates;

    fn one_query() -> Query {
        Query::from_wire_parts(
            vec![TableRef::new("t", "users")],
            vec![],
            vec![FilterExpr::True],
        )
        .expect("valid")
    }

    /// What the scripted server does after reading each estimate request.
    enum Step {
        /// Reply `Rejected { Overloaded }`.
        RejectOverloaded,
        /// Reply `Rejected { QuotaExceeded }` (a fatal verdict).
        RejectQuota,
        /// Drop the connection without replying (transport failure); the
        /// client must reconnect, so the script keeps accepting.
        Hangup,
        /// Serve a fixed single-query result.
        Serve,
    }

    /// Runs a server that handshakes each connection and then performs one
    /// scripted [`Step`] per estimate request, in order. Returns the
    /// listening address and a handle yielding the observed request count.
    fn scripted_server(script: Vec<Step>) -> (SocketAddr, std::thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let mut steps = std::collections::VecDeque::from(script);
            let mut served = 0usize;
            'sessions: loop {
                let Ok((stream, _)) = listener.accept() else {
                    return served;
                };
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = StdBufReader::new(stream);
                let mut frame = Vec::new();
                // Handshake.
                if read_frame(&mut reader, &mut frame).expect("read hello") != FrameRead::Frame {
                    continue;
                }
                wire::decode_hello(&frame).expect("hello");
                write_frame(&mut writer, &wire::encode_hello_ok(&["stats".to_string()]))
                    .expect("write hello_ok");
                // One scripted step per request on this connection.
                while let Ok(FrameRead::Frame) = read_frame(&mut reader, &mut frame) {
                    let batch = wire::decode_estimate_batch(&frame).expect("request");
                    served += 1;
                    match steps.pop_front() {
                        Some(Step::RejectOverloaded) => write_frame(
                            &mut writer,
                            &wire::encode_rejected(
                                batch.request_id,
                                RejectReason::Overloaded,
                                "scripted overload",
                            ),
                        )
                        .expect("write rejection"),
                        Some(Step::RejectQuota) => write_frame(
                            &mut writer,
                            &wire::encode_rejected(
                                batch.request_id,
                                RejectReason::QuotaExceeded,
                                "scripted quota refusal",
                            ),
                        )
                        .expect("write rejection"),
                        Some(Step::Hangup) => continue 'sessions,
                        Some(Step::Serve) => write_frame(
                            &mut writer,
                            &wire::encode_batch_result(
                                batch.request_id,
                                &[Ok(WireEstimates {
                                    model_epoch: 7,
                                    estimates: vec![(0b1, 42.5)],
                                })],
                            ),
                        )
                        .expect("write result"),
                        None => return served,
                    }
                    if steps.is_empty() {
                        // Script exhausted: let the client read the final
                        // reply (its EOF ends this read loop), then exit.
                        while let Ok(FrameRead::Frame) = read_frame(&mut reader, &mut frame) {}
                        return served;
                    }
                }
                // The client closed the session with steps still scripted:
                // it gave up early (e.g. a fatal rejection it refuses to
                // retry). Only a `Hangup` step invites a reconnect, so
                // exit instead of blocking in accept forever.
                return served;
            }
        });
        (addr, handle)
    }

    fn fast_retries(n: u32) -> ClientConfig {
        ClientConfig::default()
            .with_retry(RetryPolicy::retries(n).with_base_backoff(Duration::from_millis(1)))
    }

    #[test]
    fn call_retries_overloaded_until_served() {
        let (addr, server) = scripted_server(vec![
            Step::RejectOverloaded,
            Step::RejectOverloaded,
            Step::Serve,
        ]);
        let mut client = FjClient::connect_with(addr, fast_retries(3)).expect("connect");
        match client.call("stats", 1, &[one_query()]).expect("call") {
            BatchOutcome::Served(results) => {
                let est = results[0].as_ref().expect("served");
                assert_eq!(est.model_epoch, 7);
                assert_eq!(est.estimates, vec![(0b1, 42.5)]);
            }
            other => panic!("retries did not ride out the overload: {other:?}"),
        }
        drop(client); // EOF ends the session so the script thread exits
        assert_eq!(
            server.join().unwrap(),
            3,
            "two rejected attempts + one served"
        );
    }

    #[test]
    fn call_reconnects_and_resends_after_hangup() {
        let (addr, server) = scripted_server(vec![Step::Hangup, Step::Serve]);
        let mut client = FjClient::connect_with(addr, fast_retries(2)).expect("connect");
        match client.call("stats", 1, &[one_query()]).expect("call") {
            BatchOutcome::Served(results) => assert!(results[0].is_ok()),
            other => panic!("reconnect+resend failed: {other:?}"),
        }
        assert!(client.is_connected(), "the replacement connection is live");
        drop(client);
        assert_eq!(server.join().unwrap(), 2, "the request was resent once");
    }

    #[test]
    fn fatal_rejections_are_not_retried() {
        let (addr, server) = scripted_server(vec![Step::RejectQuota, Step::Serve]);
        let mut client = FjClient::connect_with(addr, fast_retries(5)).expect("connect");
        match client.call("stats", 1, &[one_query()]).expect("call") {
            BatchOutcome::Rejected { reason, .. } => {
                assert_eq!(reason, RejectReason::QuotaExceeded);
            }
            other => panic!("fatal verdict must surface immediately: {other:?}"),
        }
        drop(client);
        assert_eq!(server.join().unwrap(), 1, "no retry after a fatal verdict");
    }

    #[test]
    fn exhausted_policy_returns_the_last_rejection() {
        let (addr, server) = scripted_server(vec![
            Step::RejectOverloaded,
            Step::RejectOverloaded,
            Step::RejectOverloaded,
        ]);
        let mut client = FjClient::connect_with(addr, fast_retries(2)).expect("connect");
        match client.call("stats", 1, &[one_query()]).expect("call") {
            BatchOutcome::Rejected { reason, .. } => assert_eq!(reason, RejectReason::Overloaded),
            other => panic!("expected the final rejection: {other:?}"),
        }
        drop(client);
        assert_eq!(server.join().unwrap(), 3, "initial attempt + 2 retries");
    }

    #[test]
    fn silent_server_times_out_within_the_request_budget() {
        // A server that handshakes and then never replies: the classic
        // stall only a deadline can unstick.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = StdBufReader::new(stream);
            let mut frame = Vec::new();
            read_frame(&mut reader, &mut frame).expect("hello");
            write_frame(&mut writer, &wire::encode_hello_ok(&["stats".to_string()]))
                .expect("hello_ok");
            // Read the request, confirm its wire deadline, go silent.
            read_frame(&mut reader, &mut frame).expect("request");
            let batch = wire::decode_estimate_batch(&frame).expect("decode");
            assert!(batch.deadline_ms > 0, "the budget rides as the deadline");
            while let Ok(FrameRead::Frame) = read_frame(&mut reader, &mut frame) {}
        });
        let config = ClientConfig::default()
            .with_request_timeout(Some(Duration::from_millis(100)))
            .with_retry(RetryPolicy::none());
        let mut client = FjClient::connect_with(addr, config).expect("connect");
        let started = Instant::now();
        let err = client
            .call("stats", 1, &[one_query()])
            .expect_err("a silent server cannot serve");
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ),
            "unexpected error: {err}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "the call must be bounded by its budget, took {:?}",
            started.elapsed()
        );
        assert!(!client.is_connected(), "the stalled connection is poisoned");
        drop(client);
        server.join().unwrap();
    }

    /// The handshake is exact-match: a server speaking any other version is
    /// refused at connect, naming the mismatch.
    #[test]
    fn a_server_of_another_version_is_refused_at_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = StdBufReader::new(stream);
            let mut frame = Vec::new();
            read_frame(&mut reader, &mut frame).expect("hello");
            let mut hello_ok = wire::Enc::new(wire::OP_HELLO_OK);
            hello_ok.u32(PROTOCOL_VERSION + 1);
            hello_ok.u32(0); // no datasets
            write_frame(&mut writer, &hello_ok.finish()).expect("hello_ok");
        });
        let Err(err) = FjClient::connect(addr) else {
            panic!("a client connected to a server of another version");
        };
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert_eq!(
            err.get_ref().and_then(|e| e.downcast_ref::<WireError>()),
            Some(&WireError::VersionMismatch {
                theirs: PROTOCOL_VERSION + 1
            })
        );
        server.join().unwrap();
    }

    /// A batch too large for one frame is refused before a byte is written:
    /// `InvalidInput` is not retryable, the connection stays up, and the
    /// server never sees the batch.
    #[test]
    fn an_oversized_batch_is_refused_before_it_is_written() {
        let (addr, server) = scripted_server(vec![Step::Serve]);
        let mut client = FjClient::connect_with(addr, fast_retries(3)).expect("connect");
        let huge = Query::from_wire_parts(
            vec![TableRef::new("p", "posts")],
            vec![],
            vec![FilterExpr::Pred(Predicate::Cmp {
                column: "body".into(),
                op: CmpOp::Eq,
                value: Value::Str("x".repeat(MAX_FRAME_LEN as usize + 1)),
            })],
        )
        .expect("valid");
        let err = client
            .call("stats", 1, &[huge])
            .expect_err("a frame over the cap cannot be sent");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert!(client.is_connected(), "nothing was written");
        match client.call("stats", 1, &[one_query()]).expect("call") {
            BatchOutcome::Served(results) => assert!(results[0].is_ok()),
            other => panic!("the connection did not survive the refusal: {other:?}"),
        }
        drop(client);
        assert_eq!(server.join().unwrap(), 1, "only the batch that fit arrived");
    }
}
