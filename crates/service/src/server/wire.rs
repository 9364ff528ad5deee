//! The length-prefixed binary wire protocol shared by [`super::FjServer`]
//! and [`super::FjClient`].
//!
//! Every payload is written with [`fj_storage::codec::Enc`] and read with
//! [`fj_storage::codec::Dec`], the codec `.fjm` models use: counts,
//! lengths, indices, the version, epochs, masks and ids are LEB128
//! varints, `Value::Int` is a zigzag varint, strings are length-prefixed
//! UTF-8, and only `f64`s (raw IEEE-754 bits — estimates cross the wire
//! **bit-identical**) and the random `trace_id` are fixed-width
//! little-endian. A repeated field's count is checked against the bytes
//! left before anything is allocated for it.
//!
//! ## Decoded size
//!
//! A byte on the wire can decode into far more memory: a one-byte `True`
//! AND/OR part becomes a 72-byte node (a one-byte `Null` `IN` value a
//! 24-byte one), so a 64 MiB frame of them would need ≈ 4.6 GB. An
//! `EstimateBatch` frame therefore decodes at most [`MAX_BATCH_ELEMENTS`]
//! elements — queries, tables (with their filter's root), joins, AND/OR
//! parts, NOT operands and `IN` values — each charged before anything is
//! allocated for it, and refused past the budget as
//! [`DecodeError::HostileLength`]. No element takes more than 120 bytes
//! (a table: its 48-byte `TableRef` and the 72-byte root of its filter),
//! so the worst decoded size of a legal frame is ≈ 30 MiB of elements plus
//! its strings, whose bytes are the frame's own (before allocator
//! rounding): at most ≈ 94 MiB for a full 64 MiB frame.
//!
//! ## Framing
//!
//! Every message is one frame: a `u32` payload length followed by the
//! payload, whose first byte is the opcode. Frames larger than
//! [`MAX_FRAME_LEN`] are rejected before allocation, so a garbage length
//! prefix cannot OOM the peer.
//!
//! | opcode | direction | message |
//! |-------:|-----------|---------|
//! | `0x01` | C → S     | `Hello { version }` — first frame after connect |
//! | `0x02` | C → S     | `EstimateBatch { request_id, dataset, min_size, deadline_ms, trace_id, queries }` |
//! | `0x03` | C → S     | `Health` — liveness/load probe |
//! | `0x04` | C → S     | `Metrics` — scrape the server's metrics plane |
//! | `0x81` | S → C     | `HelloOk { version, datasets }` |
//! | `0x82` | S → C     | `BatchResult { request_id, results }` — each result epoch-tagged |
//! | `0x83` | S → C     | `Rejected { request_id, reason, message }` |
//! | `0x84` | S → C     | `HealthOk { draining, shards }` |
//! | `0x85` | S → C     | `MetricsOk { text }` — Prometheus exposition + slow-query log |
//!
//! `request_id` is a client-chosen multiplexing tag: a client may pipeline
//! any number of `EstimateBatch` frames before reading, and the server
//! responds per request as each completes (order not guaranteed).
//! Responses carry the serving model's registry epoch per query, so a
//! client observing an epoch change mid-flight has detected a hot-swap.
//!
//! ## Versioning
//!
//! One layout per message and one version, [`PROTOCOL_VERSION`]; both
//! peers require the other to speak exactly that version. A hello is read
//! only as far as its version, so a peer of another version is still
//! answered and refused by name. Every field is always written:
//! `EstimateBatch`'s `deadline_ms` (a **relative** millisecond budget —
//! peers' wall clocks are not synchronized) and `trace_id` are `0` when
//! there is none.

use crate::request::RejectReason;
use fj_query::{
    ColRef, FilterExpr, JoinPredicate, Predicate, Query, QueryError, SubplanMask, TableRef,
    MAX_FILTER_DEPTH, MAX_JOINS,
};
use fj_storage::codec::{Dec, DecodeError, Enc};
use fj_storage::Value;
use std::io::{IoSlice, Read, Write};

/// Protocol version spoken — and required of the peer — by this build.
pub const PROTOCOL_VERSION: u32 = 5;

/// Hard ceiling on a frame payload, validated before allocating.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// The most elements one `EstimateBatch` frame may decode (see the module
/// docs): a 16-query batch of eight-table queries uses a few hundred.
pub const MAX_BATCH_ELEMENTS: usize = 1 << 18;

/// What is left of one frame's [`MAX_BATCH_ELEMENTS`].
struct Budget(usize);

impl Budget {
    /// Charges `n` elements of the field `what`, before anything is
    /// allocated for them.
    fn charge(&mut self, what: &'static str, n: usize) -> Result<(), WireError> {
        if n > self.0 {
            return Err(DecodeError::HostileLength {
                what,
                wanted: n as u64,
                available: self.0 as u64,
            }
            .into());
        }
        self.0 -= n;
        Ok(())
    }
}

/// Opcode of the client hello frame.
pub const OP_HELLO: u8 = 0x01;
/// Opcode of an estimate-batch request frame.
pub const OP_ESTIMATE_BATCH: u8 = 0x02;
/// Opcode of a health-probe request frame.
pub const OP_HEALTH: u8 = 0x03;
/// Opcode of a metrics-scrape request frame.
pub const OP_METRICS: u8 = 0x04;
/// Opcode of the server hello-acknowledgement frame.
pub const OP_HELLO_OK: u8 = 0x81;
/// Opcode of a batch-result frame.
pub const OP_BATCH_RESULT: u8 = 0x82;
/// Opcode of a rejection frame.
pub const OP_REJECTED: u8 = 0x83;
/// Opcode of a health-probe response frame.
pub const OP_HEALTH_OK: u8 = 0x84;
/// Opcode of a metrics-scrape response frame.
pub const OP_METRICS_OK: u8 = 0x85;

/// A malformed or unexpected wire payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// A field did not decode: the payload ended inside it, its count
    /// exceeded what the remaining bytes can hold, or its bytes were
    /// invalid (UTF-8, a varint past its width). The error names the field.
    Decode(DecodeError),
    /// An enum tag byte had no defined meaning.
    BadTag {
        /// Which decoder hit the tag.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A frame length prefix exceeded [`MAX_FRAME_LEN`].
    FrameTooLarge(u32),
    /// The peer spoke a protocol version other than [`PROTOCOL_VERSION`].
    VersionMismatch {
        /// Version in the peer's hello.
        theirs: u32,
    },
    /// A decoded query failed structural validation.
    BadQuery(String),
    /// Trailing bytes after a complete message.
    TrailingBytes,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Decode(e) => write!(f, "undecodable payload: {e}"),
            WireError::BadTag { what, tag } => write!(f, "bad {what} tag {tag:#04x}"),
            WireError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_LEN}-byte cap")
            }
            WireError::VersionMismatch { theirs } => {
                write!(
                    f,
                    "peer speaks protocol version {theirs}, this build speaks {PROTOCOL_VERSION}"
                )
            }
            WireError::BadQuery(msg) => write!(f, "invalid query on the wire: {msg}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Decode(e)
    }
}

impl From<WireError> for std::io::Error {
    fn from(e: WireError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// An encoder holding `opcode`, the first byte of every payload.
pub(crate) fn begin(opcode: u8) -> Enc {
    let mut e = Enc::default();
    e.u8(opcode);
    e
}

/// A payload must end where its message does.
fn finish(d: &Dec<'_>) -> Result<(), WireError> {
    if d.remaining() == 0 {
        Ok(())
    } else {
        Err(WireError::TrailingBytes)
    }
}

// ----------------------------------------------------------------- frames

/// Writes one `[u32 length][payload]` frame — prefix and payload in **one**
/// vectored write, so an unbuffered `TCP_NODELAY` socket sends one segment
/// and the peer is never woken by the 4-byte prefix alone. Whatever a
/// short write (or a writer without real vectored support, which takes
/// the first slice only) left over follows in plain writes.
pub(crate) fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME_LEN as usize);
    let prefix = (payload.len() as u32).to_le_bytes();
    let sent = match w.write_vectored(&[IoSlice::new(&prefix), IoSlice::new(payload)]) {
        Ok(sent) => sent,
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => 0,
        Err(e) => return Err(e),
    };
    w.write_all(&prefix[sent.min(prefix.len())..])?;
    w.write_all(&payload[sent.saturating_sub(prefix.len())..])?;
    w.flush()
}

/// Outcome of [`read_frame`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum FrameRead {
    /// A complete frame landed in the buffer.
    Frame,
    /// The peer closed at a frame boundary.
    CleanEof,
    /// The socket read timeout fired **at a frame boundary** — the peer is
    /// merely quiet, not broken. The caller decides whether quiet means
    /// idle-reap, shutdown-check, keep waiting, or a spent budget.
    TimedOut,
}

/// Reads one frame into `buf` (reused across calls to avoid per-frame
/// allocation). A timeout or close before any prefix byte arrived is
/// reported as [`FrameRead::TimedOut`] / [`FrameRead::CleanEof`]; either
/// one *mid-frame* is a hard error — the stream has lost sync and the only
/// safe recovery is dropping the connection.
pub(crate) fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> std::io::Result<FrameRead> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    while filled < len_bytes.len() {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(FrameRead::CleanEof),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    format!("stream ended {filled} bytes into a frame length prefix"),
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if filled == 0
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                return Ok(FrameRead::TimedOut)
            }
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge(len).into());
    }
    buf.clear();
    buf.resize(len as usize, 0);
    r.read_exact(buf)?;
    Ok(FrameRead::Frame)
}

// --------------------------------------------------------------- messages

/// One query's served estimates as they appear on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEstimates {
    /// Registry epoch of the model that answered (hot-swap detection).
    pub model_epoch: u64,
    /// Sub-plan estimates, in the deterministic `estimate_subplans` order,
    /// bit-identical to the in-process result.
    pub estimates: Vec<(SubplanMask, f64)>,
}

/// Server verdict on one multiplexed request.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchOutcome {
    /// Every query was served; per-query results in submission order. A
    /// query slot holds `Err(message)` only when the service dropped it
    /// mid-shutdown.
    Served(Vec<Result<WireEstimates, String>>),
    /// The request was refused — by admission control (nothing was queued,
    /// retry is the client's call) or, for
    /// [`RejectReason::ResponseTooLarge`], after serving: the results did
    /// not fit one frame and were discarded, so the client should split
    /// the batch.
    Rejected {
        /// Why the server refused.
        reason: RejectReason,
        /// Human-readable detail.
        message: String,
    },
}

fn reason_code(reason: RejectReason) -> u8 {
    match reason {
        RejectReason::QuotaExceeded => 0,
        RejectReason::Overloaded => 1,
        RejectReason::ShuttingDown => 2,
        RejectReason::UnknownDataset => 3,
        RejectReason::ResponseTooLarge => 4,
        RejectReason::DeadlineExceeded => 5,
    }
}

fn reason_from_code(code: u8) -> Result<RejectReason, WireError> {
    Ok(match code {
        0 => RejectReason::QuotaExceeded,
        1 => RejectReason::Overloaded,
        2 => RejectReason::ShuttingDown,
        3 => RejectReason::UnknownDataset,
        4 => RejectReason::ResponseTooLarge,
        5 => RejectReason::DeadlineExceeded,
        tag => {
            return Err(WireError::BadTag {
                what: "reason",
                tag,
            })
        }
    })
}

pub(crate) fn encode_hello() -> Vec<u8> {
    let mut e = begin(OP_HELLO);
    e.varint(PROTOCOL_VERSION.into());
    e.finish()
}

/// The peer's version. A hello of this build's version must end after it;
/// one of another version is read no further, since its layout is not
/// this build's to judge (version 4 wrote a fixed `u32`, whose low byte
/// reads as the same varint).
pub(crate) fn decode_hello(payload: &[u8]) -> Result<u32, WireError> {
    let mut d = Dec::new(payload);
    expect_op(&mut d, OP_HELLO)?;
    let version = d.u32_varint("version")?;
    if version == PROTOCOL_VERSION {
        finish(&d)?;
    }
    Ok(version)
}

pub(crate) fn encode_hello_ok(datasets: &[String]) -> Vec<u8> {
    let mut e = begin(OP_HELLO_OK);
    e.varint(PROTOCOL_VERSION.into());
    e.len(datasets.len());
    for d in datasets {
        e.str(d);
    }
    e.finish()
}

/// The datasets a server of this build's version offers; a server of any
/// other version is a [`WireError::VersionMismatch`], read no further than
/// its version.
pub(crate) fn decode_hello_ok(payload: &[u8]) -> Result<Vec<String>, WireError> {
    let mut d = Dec::new(payload);
    expect_op(&mut d, OP_HELLO_OK)?;
    let theirs = d.u32_varint("version")?;
    if theirs != PROTOCOL_VERSION {
        return Err(WireError::VersionMismatch { theirs });
    }
    // A dataset name is at least its length byte.
    let n = d.count("datasets", 1)?;
    let mut datasets = Vec::with_capacity(n);
    for _ in 0..n {
        datasets.push(d.str("dataset")?.to_string());
    }
    finish(&d)?;
    Ok(datasets)
}

/// A decoded estimate-batch request.
pub(crate) struct EstimateBatch {
    pub request_id: u64,
    pub dataset: String,
    pub min_size: u32,
    /// Relative deadline budget in milliseconds, counted from receipt
    /// (never an absolute wall time — clocks are not synchronized across
    /// the wire). `0` means no deadline.
    pub deadline_ms: u64,
    /// Client-minted trace id keying this request across client logs and
    /// the server's slow-query log. `0` means untraced.
    pub trace_id: u64,
    pub queries: Vec<Query>,
}

pub(crate) fn encode_estimate_batch(
    request_id: u64,
    dataset: &str,
    min_size: u32,
    queries: &[Query],
    deadline_ms: u64,
    trace_id: u64,
) -> Vec<u8> {
    let mut e = begin(OP_ESTIMATE_BATCH);
    e.varint(request_id);
    e.str(dataset);
    e.varint(min_size.into());
    e.varint(deadline_ms);
    e.u64(trace_id);
    e.len(queries.len());
    for q in queries {
        encode_query(&mut e, q);
    }
    e.finish()
}

pub(crate) fn decode_estimate_batch(payload: &[u8]) -> Result<EstimateBatch, WireError> {
    let mut d = Dec::new(payload);
    expect_op(&mut d, OP_ESTIMATE_BATCH)?;
    let request_id = d.varint("request id")?;
    let dataset = d.str("dataset")?.to_string();
    let min_size = d.u32_varint("min size")?;
    let deadline_ms = d.varint("deadline")?;
    let trace_id = d.u64("trace id")?;
    // A query is at least its table and join counts.
    let n = d.count("queries", 2)?;
    let mut budget = Budget(MAX_BATCH_ELEMENTS);
    budget.charge("queries", n)?;
    let mut queries = Vec::with_capacity(n);
    for _ in 0..n {
        queries.push(decode_query(&mut d, &mut budget)?);
    }
    finish(&d)?;
    Ok(EstimateBatch {
        request_id,
        dataset,
        min_size,
        deadline_ms,
        trace_id,
        queries,
    })
}

pub(crate) fn encode_batch_result(
    request_id: u64,
    results: &[Result<WireEstimates, String>],
) -> Vec<u8> {
    let mut e = begin(OP_BATCH_RESULT);
    e.varint(request_id);
    e.len(results.len());
    for r in results {
        match r {
            Ok(est) => {
                e.u8(0);
                e.varint(est.model_epoch);
                e.len(est.estimates.len());
                for &(mask, value) in &est.estimates {
                    e.varint(mask);
                    e.f64(value);
                }
            }
            Err(msg) => {
                e.u8(1);
                e.str(msg);
            }
        }
    }
    e.finish()
}

pub(crate) fn decode_batch_result(
    payload: &[u8],
) -> Result<(u64, Vec<Result<WireEstimates, String>>), WireError> {
    let mut d = Dec::new(payload);
    expect_op(&mut d, OP_BATCH_RESULT)?;
    let request_id = d.varint("request id")?;
    // A result is at least its tag and a message length.
    let n = d.count("results", 2)?;
    let mut results = Vec::with_capacity(n);
    for _ in 0..n {
        match d.u8("result tag")? {
            0 => {
                let model_epoch = d.varint("model epoch")?;
                // An estimate is at least a mask byte and the f64's eight.
                let m = d.count("estimates", 9)?;
                let mut estimates = Vec::with_capacity(m);
                for _ in 0..m {
                    let mask = d.varint("mask")?;
                    let value = d.f64("estimate")?;
                    estimates.push((mask, value));
                }
                results.push(Ok(WireEstimates {
                    model_epoch,
                    estimates,
                }));
            }
            1 => results.push(Err(d.str("result message")?.to_string())),
            tag => {
                return Err(WireError::BadTag {
                    what: "result",
                    tag,
                })
            }
        }
    }
    finish(&d)?;
    Ok((request_id, results))
}

pub(crate) fn encode_rejected(request_id: u64, reason: RejectReason, message: &str) -> Vec<u8> {
    let mut e = begin(OP_REJECTED);
    e.varint(request_id);
    e.u8(reason_code(reason));
    e.str(message);
    e.finish()
}

pub(crate) fn decode_rejected(payload: &[u8]) -> Result<(u64, RejectReason, String), WireError> {
    let mut d = Dec::new(payload);
    expect_op(&mut d, OP_REJECTED)?;
    let request_id = d.varint("request id")?;
    let reason = reason_from_code(d.u8("reason")?)?;
    let message = d.str("rejection message")?.to_string();
    finish(&d)?;
    Ok((request_id, reason, message))
}

/// One shard's load as reported by a health probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// Dataset the shard serves.
    pub dataset: String,
    /// Registry epoch of the currently published model (0 when the shard
    /// has no model published).
    pub model_epoch: u64,
    /// Requests queued but not yet picked up by a worker.
    pub queue_depth: u32,
    /// The shard's bounded-queue capacity.
    pub queue_capacity: u32,
}

/// Server response to a [`OP_HEALTH`] probe: whether it is draining plus
/// every shard's queue depth and model epoch — what a load balancer needs
/// to stop routing to a shutting-down or saturated replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// The server has begun graceful shutdown: in-flight work finishes,
    /// new batches are rejected with `ShuttingDown` — fail over now.
    pub draining: bool,
    /// Per-shard load, sorted by dataset name.
    pub shards: Vec<ShardHealth>,
}

pub(crate) fn encode_metrics() -> Vec<u8> {
    begin(OP_METRICS).finish()
}

pub(crate) fn decode_metrics(payload: &[u8]) -> Result<(), WireError> {
    let mut d = Dec::new(payload);
    expect_op(&mut d, OP_METRICS)?;
    finish(&d)
}

/// The scrape response body: the server's full Prometheus exposition text
/// with the slow-query log appended as `# slowlog` comment lines.
pub(crate) fn encode_metrics_ok(text: &str) -> Vec<u8> {
    let mut e = begin(OP_METRICS_OK);
    e.str(text);
    e.finish()
}

pub(crate) fn decode_metrics_ok(payload: &[u8]) -> Result<String, WireError> {
    let mut d = Dec::new(payload);
    expect_op(&mut d, OP_METRICS_OK)?;
    let text = d.str("metrics text")?.to_string();
    finish(&d)?;
    Ok(text)
}

pub(crate) fn encode_health() -> Vec<u8> {
    begin(OP_HEALTH).finish()
}

pub(crate) fn decode_health(payload: &[u8]) -> Result<(), WireError> {
    let mut d = Dec::new(payload);
    expect_op(&mut d, OP_HEALTH)?;
    finish(&d)
}

pub(crate) fn encode_health_ok(report: &HealthReport) -> Vec<u8> {
    let mut e = begin(OP_HEALTH_OK);
    e.u8(report.draining as u8);
    e.len(report.shards.len());
    for shard in &report.shards {
        e.str(&shard.dataset);
        e.varint(shard.model_epoch);
        e.varint(shard.queue_depth.into());
        e.varint(shard.queue_capacity.into());
    }
    e.finish()
}

pub(crate) fn decode_health_ok(payload: &[u8]) -> Result<HealthReport, WireError> {
    let mut d = Dec::new(payload);
    expect_op(&mut d, OP_HEALTH_OK)?;
    let draining = match d.u8("draining")? {
        0 => false,
        1 => true,
        tag => {
            return Err(WireError::BadTag {
                what: "draining",
                tag,
            })
        }
    };
    // A shard is at least a name length, an epoch, a depth and a capacity.
    let n = d.count("shards", 4)?;
    let mut shards = Vec::with_capacity(n);
    for _ in 0..n {
        shards.push(ShardHealth {
            dataset: d.str("shard dataset")?.to_string(),
            model_epoch: d.varint("shard model epoch")?,
            queue_depth: d.u32_varint("queue depth")?,
            queue_capacity: d.u32_varint("queue capacity")?,
        });
    }
    finish(&d)?;
    Ok(HealthReport { draining, shards })
}

fn expect_op(d: &mut Dec<'_>, opcode: u8) -> Result<(), WireError> {
    let tag = d.u8("opcode")?;
    if tag != opcode {
        return Err(WireError::BadTag {
            what: "opcode",
            tag,
        });
    }
    Ok(())
}

// ------------------------------------------------------------ query codec

fn encode_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Null => e.u8(0),
        Value::Int(i) => {
            e.u8(1);
            e.zigzag(*i);
        }
        Value::Float(f) => {
            e.u8(2);
            e.f64(*f);
        }
        Value::Str(s) => {
            e.u8(3);
            e.str(s);
        }
    }
}

fn decode_value(d: &mut Dec<'_>) -> Result<Value, WireError> {
    Ok(match d.u8("value tag")? {
        0 => Value::Null,
        1 => Value::Int(d.zigzag("integer value")?),
        2 => Value::Float(d.f64("float value")?),
        3 => Value::Str(d.str("string value")?.to_string()),
        tag => return Err(WireError::BadTag { what: "value", tag }),
    })
}

fn encode_predicate(e: &mut Enc, p: &Predicate) {
    match p {
        Predicate::Cmp { column, op, value } => {
            e.u8(0);
            e.str(column);
            e.u8(*op as u8);
            encode_value(e, value);
        }
        Predicate::Between { column, lo, hi } => {
            e.u8(1);
            e.str(column);
            encode_value(e, lo);
            encode_value(e, hi);
        }
        Predicate::InList { column, values } => {
            e.u8(2);
            e.str(column);
            e.len(values.len());
            for v in values {
                encode_value(e, v);
            }
        }
        Predicate::Like {
            column,
            pattern,
            negated,
        } => {
            e.u8(3);
            e.str(column);
            e.str(pattern);
            e.u8(*negated as u8);
        }
        Predicate::IsNull { column, negated } => {
            e.u8(4);
            e.str(column);
            e.u8(*negated as u8);
        }
    }
}

fn decode_cmp_op(tag: u8) -> Result<fj_query::CmpOp, WireError> {
    use fj_query::CmpOp::*;
    Ok(match tag {
        0 => Eq,
        1 => Neq,
        2 => Lt,
        3 => Le,
        4 => Gt,
        5 => Ge,
        tag => return Err(WireError::BadTag { what: "cmp", tag }),
    })
}

fn decode_predicate(d: &mut Dec<'_>, budget: &mut Budget) -> Result<Predicate, WireError> {
    Ok(match d.u8("predicate tag")? {
        0 => Predicate::Cmp {
            column: d.str("predicate column")?.to_string(),
            op: decode_cmp_op(d.u8("cmp op")?)?,
            value: decode_value(d)?,
        },
        1 => Predicate::Between {
            column: d.str("predicate column")?.to_string(),
            lo: decode_value(d)?,
            hi: decode_value(d)?,
        },
        2 => {
            let column = d.str("predicate column")?.to_string();
            // A value is at least its tag.
            let n = d.count("IN values", 1)?;
            budget.charge("IN values", n)?;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(decode_value(d)?);
            }
            Predicate::InList { column, values }
        }
        3 => Predicate::Like {
            column: d.str("predicate column")?.to_string(),
            pattern: d.str("LIKE pattern")?.to_string(),
            negated: d.u8("negated")? != 0,
        },
        4 => Predicate::IsNull {
            column: d.str("predicate column")?.to_string(),
            negated: d.u8("negated")? != 0,
        },
        tag => {
            return Err(WireError::BadTag {
                what: "predicate",
                tag,
            })
        }
    })
}

fn encode_filter(e: &mut Enc, f: &FilterExpr) {
    match f {
        FilterExpr::True => e.u8(0),
        FilterExpr::Pred(p) => {
            e.u8(1);
            encode_predicate(e, p);
        }
        FilterExpr::And(parts) => {
            e.u8(2);
            e.len(parts.len());
            for p in parts {
                encode_filter(e, p);
            }
        }
        FilterExpr::Or(parts) => {
            e.u8(3);
            e.len(parts.len());
            for p in parts {
                encode_filter(e, p);
            }
        }
        FilterExpr::Not(inner) => {
            e.u8(4);
            encode_filter(e, inner);
        }
    }
}

/// Reads a filter whose AND/OR/NOT ancestors number `depth`: a node that
/// would put it past [`MAX_FILTER_DEPTH`] is a `BadQuery`, so a frame of
/// nested tags cannot recurse the reader off its stack.
fn decode_filter(
    d: &mut Dec<'_>,
    depth: usize,
    budget: &mut Budget,
) -> Result<FilterExpr, WireError> {
    let tag = d.u8("filter tag")?;
    if matches!(tag, 2..=4) && depth == MAX_FILTER_DEPTH {
        return Err(WireError::BadQuery(format!(
            "filter nests AND/OR/NOT more than {MAX_FILTER_DEPTH} levels deep"
        )));
    }
    Ok(match tag {
        0 => FilterExpr::True,
        1 => FilterExpr::Pred(decode_predicate(d, budget)?),
        2 | 3 => {
            // A part is at least its tag.
            let n = d.count("AND/OR parts", 1)?;
            budget.charge("AND/OR parts", n)?;
            let mut parts = Vec::with_capacity(n);
            for _ in 0..n {
                parts.push(decode_filter(d, depth + 1, budget)?);
            }
            if tag == 2 {
                FilterExpr::And(parts)
            } else {
                FilterExpr::Or(parts)
            }
        }
        4 => {
            budget.charge("NOT operand", 1)?;
            FilterExpr::Not(Box::new(decode_filter(d, depth + 1, budget)?))
        }
        tag => {
            return Err(WireError::BadTag {
                what: "filter",
                tag,
            })
        }
    })
}

fn encode_query(e: &mut Enc, q: &Query) {
    e.len(q.tables().len());
    for t in q.tables() {
        e.str(&t.alias);
        e.str(&t.table);
    }
    e.len(q.joins().len());
    for j in q.joins() {
        e.len(j.left.alias);
        e.len(j.left.column);
        e.len(j.right.alias);
        e.len(j.right.column);
    }
    for f in q.filters() {
        encode_filter(e, f);
    }
}

fn decode_query(d: &mut Dec<'_>, budget: &mut Budget) -> Result<Query, WireError> {
    let bad = |e: QueryError| WireError::BadQuery(e.to_string());
    // A table is at least its alias and name lengths and its filter's tag.
    // Past the alias and join caps a query is refused from its count,
    // before a table or join is read.
    let nt = d.count("query tables", 3)?;
    if nt > 64 {
        return Err(bad(QueryError::TooManyAliases(nt)));
    }
    budget.charge("query tables", nt)?;
    let mut tables = Vec::with_capacity(nt);
    for _ in 0..nt {
        let alias = d.str("table alias")?.to_string();
        let table = d.str("table name")?.to_string();
        tables.push(TableRef { alias, table });
    }
    // A join is at least its four index bytes.
    let nj = d.count("query joins", 4)?;
    if nj > MAX_JOINS {
        return Err(bad(QueryError::TooManyJoins(nj)));
    }
    budget.charge("query joins", nj)?;
    let mut joins = Vec::with_capacity(nj);
    for _ in 0..nj {
        joins.push(JoinPredicate {
            left: ColRef {
                alias: d.usize("join alias")?,
                column: d.usize("join column")?,
            },
            right: ColRef {
                alias: d.usize("join alias")?,
                column: d.usize("join column")?,
            },
        });
    }
    let mut filters = Vec::with_capacity(nt);
    for _ in 0..nt {
        filters.push(decode_filter(d, 0, budget)?);
    }
    Query::from_wire_parts(tables, joins, filters).map_err(bad)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fj_query::CmpOp;

    /// An `EstimateBatch` payload for request 1 on `stats` with no deadline,
    /// untraced, whose queries — from their count on — `queries` writes.
    fn batch_with(queries: impl FnOnce(&mut Enc)) -> Vec<u8> {
        let mut e = begin(OP_ESTIMATE_BATCH);
        e.varint(1); // request id
        e.str("stats");
        e.varint(1); // min size
        e.varint(0); // no deadline
        e.u64(0); // untraced
        queries(&mut e);
        e.finish()
    }

    /// [`batch_with`] one query over one `posts` table, no joins, whose
    /// filter `filter` writes.
    fn one_table_batch(filter: impl FnOnce(&mut Enc)) -> Vec<u8> {
        batch_with(|e| {
            e.len(1); // one query
            e.len(1); // one table
            e.str("p");
            e.str("posts");
            e.len(0); // no joins
            filter(e);
        })
    }

    /// An `EstimateBatch` payload of one `posts` query whose filter is
    /// `nots` NOT tags around `True`: 100 000 of them are a 100 KB frame,
    /// far below the frame cap.
    pub(crate) fn nested_not_batch(nots: usize) -> Vec<u8> {
        one_table_batch(|e| {
            for _ in 0..nots {
                e.u8(4);
            }
            e.u8(0);
        })
    }

    /// An `EstimateBatch` payload of one star query: a `users` hub joined
    /// to `leaves` `posts` aliases. 63 leaves are a < 1 KB frame whose
    /// query has 2⁶³ + 63 connected sub-plans.
    pub(crate) fn star_batch(leaves: usize) -> Vec<u8> {
        batch_with(|e| {
            e.len(1); // one query
            e.len(leaves + 1);
            e.str("u");
            e.str("users");
            for i in 1..=leaves {
                e.str(&format!("p{i}"));
                e.str("posts");
            }
            e.len(leaves);
            for i in 1..=leaves {
                for side in [0, 0, i, 0] {
                    e.len(side);
                }
            }
            for _ in 0..=leaves {
                e.u8(0); // FilterExpr::True
            }
        })
    }

    /// A star past the sub-plan cap is a `BadQuery` naming the cap, refused
    /// while its frame is decoded; one leaf fewer than the cap allows binds.
    #[test]
    fn stars_past_the_subplan_cap_are_refused_by_name() {
        let frame = star_batch(63);
        assert!(frame.len() < 1024, "{} bytes", frame.len());
        let refused = decode_estimate_batch(&frame);
        assert!(
            matches!(&refused, Err(WireError::BadQuery(m)) if m.contains("connected sub-plans")),
            "{:?}",
            refused.err()
        );
        assert!(matches!(
            decode_estimate_batch(&star_batch(16)),
            Err(WireError::BadQuery(_))
        ));
        let bound = decode_estimate_batch(&star_batch(15)).unwrap();
        assert_eq!(bound.queries[0].num_tables(), 16);
    }

    /// A batch of one query over two tables whose `claimed` join count is
    /// followed by `present` joins, each `a.c = b.c` on its own column `c`.
    fn joined_batch(claimed: usize, present: usize) -> Vec<u8> {
        batch_with(|e| {
            e.len(1); // one query
            e.len(2); // two tables
            for (alias, table) in [("a", "posts"), ("b", "users")] {
                e.str(alias);
                e.str(table);
            }
            e.len(claimed);
            for c in 0..present {
                for side in [0, c, 1, c] {
                    e.len(side);
                }
            }
            e.u8(0); // FilterExpr::True, twice
            e.u8(0);
        })
    }

    /// The join cap holds on the wire: [`MAX_JOINS`] joins decode, one more
    /// is a `BadQuery`, and so is a frame of four million joins — the most
    /// a frame held when a join was 16 fixed bytes — refused from its count
    /// before a join is read.
    #[test]
    fn joins_past_the_cap_are_refused_before_they_are_read() {
        let at_cap = decode_estimate_batch(&joined_batch(MAX_JOINS, MAX_JOINS)).unwrap();
        assert_eq!(at_cap.queries[0].joins().len(), MAX_JOINS);
        let past = decode_estimate_batch(&joined_batch(MAX_JOINS + 1, MAX_JOINS + 1));
        assert!(
            matches!(&past, Err(WireError::BadQuery(m)) if m.contains("join predicates")),
            "{:?}",
            past.err()
        );
        let worst = 4 << 20;
        let mut frame = joined_batch(worst, 0);
        // The claimed joins' bytes: four zero indices each, then the filters.
        frame.splice(frame.len() - 2..frame.len() - 2, vec![0u8; 4 * worst]);
        assert!(frame.len() < MAX_FRAME_LEN as usize);
        assert!(matches!(
            decode_estimate_batch(&frame),
            Err(WireError::BadQuery(m)) if m.contains("join predicates")
        ));
    }

    /// Nesting past the cap is a `BadQuery`, not a stack overflow: the
    /// recursive reader used to abort the process on this frame.
    #[test]
    fn nesting_past_the_cap_is_a_bad_query() {
        let frame = nested_not_batch(100_000);
        assert!(frame.len() < 128 << 10 && frame.len() < MAX_FRAME_LEN as usize);
        assert!(matches!(
            decode_estimate_batch(&frame),
            Err(WireError::BadQuery(m)) if m.contains("levels deep")
        ));
        let at_cap = decode_estimate_batch(&nested_not_batch(MAX_FILTER_DEPTH)).unwrap();
        let mut f = &at_cap.queries[0].filters()[0];
        for _ in 0..MAX_FILTER_DEPTH {
            let FilterExpr::Not(inner) = f else {
                panic!("not a NOT: {f:?}")
            };
            f = inner;
        }
        assert_eq!(f, &FilterExpr::True);
        assert!(matches!(
            decode_estimate_batch(&nested_not_batch(MAX_FILTER_DEPTH + 1)),
            Err(WireError::BadQuery(_))
        ));
    }

    fn sample_query() -> Query {
        // Hand-built, catalog-free: three tables, two joins, nested filters
        // exercising every predicate and filter variant.
        let tables = vec![
            TableRef::new("a", "posts"),
            TableRef::new("b", "users"),
            TableRef::new("c", "votes"),
        ];
        let joins = vec![
            JoinPredicate {
                left: ColRef {
                    alias: 0,
                    column: 1,
                },
                right: ColRef {
                    alias: 1,
                    column: 0,
                },
            },
            JoinPredicate {
                left: ColRef {
                    alias: 1,
                    column: 0,
                },
                right: ColRef {
                    alias: 2,
                    column: 2,
                },
            },
        ];
        let filters = vec![
            FilterExpr::And(vec![
                FilterExpr::Pred(Predicate::Cmp {
                    column: "score".into(),
                    op: CmpOp::Ge,
                    value: Value::Int(10),
                }),
                FilterExpr::Or(vec![
                    FilterExpr::Pred(Predicate::Between {
                        column: "views".into(),
                        lo: Value::Float(1.5),
                        hi: Value::Float(99.25),
                    }),
                    FilterExpr::Not(Box::new(FilterExpr::Pred(Predicate::IsNull {
                        column: "tag".into(),
                        negated: false,
                    }))),
                ]),
            ]),
            FilterExpr::Pred(Predicate::InList {
                column: "kind".into(),
                values: vec![Value::Str("mod".into()), Value::Null, Value::Int(-3)],
            }),
            FilterExpr::Pred(Predicate::Like {
                column: "name".into(),
                pattern: "%ove%".into(),
                negated: true,
            }),
        ];
        Query::from_wire_parts(tables, joins, filters).expect("valid sample query")
    }

    #[test]
    fn hello_frames_roundtrip() {
        assert_eq!(decode_hello(&encode_hello()).unwrap(), PROTOCOL_VERSION);
        let datasets = vec!["imdb".to_string(), "stats".to_string()];
        assert_eq!(
            decode_hello_ok(&encode_hello_ok(&datasets)).unwrap(),
            datasets
        );
        // Version 4 wrote the version as a fixed `u32`: its hello still
        // names version 4, and its `HelloOk` is a mismatch, not garbage.
        assert_eq!(decode_hello(&[OP_HELLO, 4, 0, 0, 0]), Ok(4));
        assert_eq!(
            decode_hello_ok(&[OP_HELLO_OK, 4, 0, 0, 0, 0, 0, 0, 0]),
            Err(WireError::VersionMismatch { theirs: 4 })
        );
    }

    #[test]
    fn estimate_batch_roundtrips_losslessly() {
        let q = sample_query();
        let payload = encode_estimate_batch(42, "stats", 2, &[q.clone(), q.clone()], 0, 0);
        let batch = decode_estimate_batch(&payload).unwrap();
        assert_eq!(batch.request_id, 42);
        assert_eq!(batch.dataset, "stats");
        assert_eq!(batch.min_size, 2);
        assert_eq!(batch.queries.len(), 2);
        assert_eq!(batch.deadline_ms, 0);
        assert_eq!(batch.trace_id, 0);
        for got in &batch.queries {
            assert_eq!(got.tables(), q.tables());
            assert_eq!(got.joins(), q.joins());
            assert_eq!(got.filters(), q.filters());
        }
    }

    /// The `(deadline_ms, trace_id)` pairs the codec tests cover: none,
    /// either one alone, and both.
    const DEADLINE_TRACE_PAIRS: [(u64, u64); 4] = [(0, 0), (250, 0), (0, 0xfeed), (250, 0xfeed)];

    #[test]
    fn deadline_and_trace_id_are_always_written() {
        let q = sample_query();
        let qs = std::slice::from_ref(&q);
        let len = encode_estimate_batch(1, "stats", 1, qs, 0, 0).len();
        for (deadline_ms, trace_id) in DEADLINE_TRACE_PAIRS {
            let payload = encode_estimate_batch(1, "stats", 1, qs, deadline_ms, trace_id);
            // One layout whatever the values: the deadline is a varint (250
            // takes two bytes), the trace id eight fixed bytes.
            let deadline_bytes = if deadline_ms < 128 { 1 } else { 2 };
            assert_eq!(payload.len(), len - 1 + deadline_bytes);
            let b = decode_estimate_batch(&payload).unwrap();
            assert_eq!((b.deadline_ms, b.trace_id), (deadline_ms, trace_id));
            assert_eq!(b.queries[0].filters(), q.filters());
            // Stray bytes after the queries are corruption, not a field.
            let mut torn = payload.clone();
            torn.extend_from_slice(&[0x01; 8]);
            assert_eq!(
                decode_estimate_batch(&torn).err(),
                Some(WireError::TrailingBytes)
            );
        }
    }

    #[test]
    fn metrics_frames_roundtrip() {
        decode_metrics(&encode_metrics()).unwrap();
        let text = "# HELP fj_requests_total Requests served.\n\
                    fj_requests_total{dataset=\"stats\"} 12\n\
                    # slowlog trace_id=0x0000000000000007 dataset=\"stats\"\n";
        let got = decode_metrics_ok(&encode_metrics_ok(text)).unwrap();
        assert_eq!(got, text);
        // Truncation errors instead of panicking (satellite: fuzz also
        // covers these frames below).
        let full = encode_metrics_ok(text);
        for cut in [1, 3, full.len() - 1] {
            assert!(decode_metrics_ok(&full[..cut]).is_err(), "cut at {cut}");
        }
        // Wrong opcode is a bad tag.
        assert!(matches!(
            decode_metrics_ok(&encode_metrics()),
            Err(WireError::BadTag { what: "opcode", .. })
        ));
        // Trailing garbage after the text is corruption.
        let mut padded = encode_metrics_ok(text);
        padded.push(0x00);
        assert_eq!(decode_metrics_ok(&padded), Err(WireError::TrailingBytes));
    }

    #[test]
    fn health_frames_roundtrip() {
        decode_health(&encode_health()).unwrap();
        let report = HealthReport {
            draining: true,
            shards: vec![
                ShardHealth {
                    dataset: "imdb".into(),
                    model_epoch: 3,
                    queue_depth: 17,
                    queue_capacity: 1024,
                },
                ShardHealth {
                    dataset: "stats".into(),
                    model_epoch: 0,
                    queue_depth: 0,
                    queue_capacity: 64,
                },
            ],
        };
        let got = decode_health_ok(&encode_health_ok(&report)).unwrap();
        assert_eq!(got, report);
        // A draining byte outside {0, 1} is a bad tag, not a bool cast.
        let mut bad = encode_health_ok(&report);
        bad[1] = 7;
        assert!(matches!(
            decode_health_ok(&bad),
            Err(WireError::BadTag {
                what: "draining",
                ..
            })
        ));
    }

    #[test]
    fn batch_result_roundtrips_f64_bits_exactly() {
        // Values a decimal rendering would mangle: subnormals, -0.0, the
        // bound products FactorJoin actually emits.
        let nasty = [
            f64::MIN_POSITIVE / 2.0,
            -0.0,
            1.0 + f64::EPSILON,
            2.2250738585072014e-308,
            123456789.000000001,
        ];
        let results: Vec<Result<WireEstimates, String>> = vec![
            Ok(WireEstimates {
                model_epoch: 7,
                estimates: nasty
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (1u64 << i, v))
                    .collect(),
            }),
            Err("unknown dataset \"nope\"".to_string()),
        ];
        let (id, got) = decode_batch_result(&encode_batch_result(9, &results)).unwrap();
        assert_eq!(id, 9);
        assert_eq!(got.len(), 2);
        let est = got[0].as_ref().unwrap();
        assert_eq!(est.model_epoch, 7);
        for (i, &v) in nasty.iter().enumerate() {
            assert_eq!(est.estimates[i].0, 1u64 << i);
            assert_eq!(est.estimates[i].1.to_bits(), v.to_bits(), "bit-exact f64");
        }
        assert_eq!(got[1].as_ref().unwrap_err(), "unknown dataset \"nope\"");
    }

    #[test]
    fn rejected_frame_roundtrips_every_reason() {
        for reason in [
            RejectReason::QuotaExceeded,
            RejectReason::Overloaded,
            RejectReason::ShuttingDown,
            RejectReason::UnknownDataset,
            RejectReason::ResponseTooLarge,
            RejectReason::DeadlineExceeded,
        ] {
            let payload = encode_rejected(5, reason, "nope");
            let (id, got_reason, message) = decode_rejected(&payload).unwrap();
            assert_eq!((id, got_reason, message.as_str()), (5, reason, "nope"));
        }
    }

    #[test]
    fn framing_survives_a_stream_and_rejects_oversize() {
        let mut pipe: Vec<u8> = Vec::new();
        write_frame(&mut pipe, &encode_hello()).unwrap();
        write_frame(
            &mut pipe,
            &encode_rejected(1, RejectReason::Overloaded, "x"),
        )
        .unwrap();
        let mut cursor = &pipe[..];
        let mut buf = Vec::new();
        assert_eq!(read_frame(&mut cursor, &mut buf).unwrap(), FrameRead::Frame);
        assert_eq!(decode_hello(&buf).unwrap(), PROTOCOL_VERSION);
        assert_eq!(read_frame(&mut cursor, &mut buf).unwrap(), FrameRead::Frame);
        assert_eq!(buf[0], OP_REJECTED);
        assert_eq!(
            read_frame(&mut cursor, &mut buf).unwrap(),
            FrameRead::CleanEof
        );

        // A hostile length prefix is refused before allocating.
        let huge = (MAX_FRAME_LEN + 1).to_le_bytes();
        let mut cursor = &huge[..];
        let err = read_frame(&mut cursor, &mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn write_frame_is_one_write_and_survives_short_ones() {
        /// Accepts at most `limit` bytes per call, across slices.
        struct Sink {
            bytes: Vec<u8>,
            calls: usize,
            limit: usize,
        }
        impl Write for Sink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.write_vectored(&[IoSlice::new(buf)])
            }
            fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
                self.calls += 1;
                let before = self.bytes.len();
                for buf in bufs {
                    let room = self.limit - (self.bytes.len() - before);
                    self.bytes.extend_from_slice(&buf[..buf.len().min(room)]);
                }
                Ok(self.bytes.len() - before)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let payload = encode_rejected(1, RejectReason::Overloaded, "x");
        let mut expected = (payload.len() as u32).to_le_bytes().to_vec();
        expected.extend_from_slice(&payload);
        // A short write may end inside the prefix (3), at its end (4),
        // inside the payload (5), or not happen at all.
        for limit in [3, 4, 5, usize::MAX] {
            let mut sink = Sink {
                bytes: Vec::new(),
                calls: 0,
                limit,
            };
            write_frame(&mut sink, &payload).unwrap();
            assert_eq!(sink.bytes, expected, "limit {limit}: bytes unchanged");
            if limit == usize::MAX {
                assert_eq!(sink.calls, 1, "prefix and payload leave in one call");
            }
        }
    }

    #[test]
    fn truncated_length_prefix_is_an_error_not_clean_eof() {
        // A peer dying 1-3 bytes into the length prefix is a truncated
        // stream, not an orderly close.
        let mut full = Vec::new();
        write_frame(&mut full, &encode_hello()).unwrap();
        let mut buf = Vec::new();
        for cut in 1..4 {
            let mut cursor = &full[..cut];
            let err = read_frame(&mut cursor, &mut buf).unwrap_err();
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof,
                "cut at {cut}"
            );
        }
        // Zero bytes at a frame boundary stays a clean EOF.
        let mut cursor: &[u8] = &[];
        assert_eq!(
            read_frame(&mut cursor, &mut buf).unwrap(),
            FrameRead::CleanEof
        );
    }

    #[test]
    fn a_timeout_is_quiet_at_a_frame_boundary_and_an_error_mid_frame() {
        /// Yields its bytes, then fails every read the way a socket read
        /// timeout does.
        struct Quiet<'a>(&'a [u8]);
        impl Read for Quiet<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                self.0.read(buf)
            }
        }
        let mut full = Vec::new();
        write_frame(&mut full, &encode_hello()).unwrap();
        let mut buf = Vec::new();
        let mut quiet = Quiet(&full);
        assert_eq!(read_frame(&mut quiet, &mut buf).unwrap(), FrameRead::Frame);
        assert_eq!(
            read_frame(&mut quiet, &mut buf).unwrap(),
            FrameRead::TimedOut
        );
        for cut in [2, 5] {
            let err = read_frame(&mut Quiet(&full[..cut]), &mut buf).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock, "cut at {cut}");
        }
    }

    #[test]
    fn malformed_payloads_error_instead_of_panicking() {
        // Truncated mid-field.
        let payload = encode_estimate_batch(1, "stats", 1, &[sample_query()], 0, 0);
        for cut in [1, 5, payload.len() / 2, payload.len() - 1] {
            assert!(
                decode_estimate_batch(&payload[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        // Wrong opcode.
        assert!(matches!(
            decode_hello(&encode_hello_ok(&[])),
            Err(WireError::BadTag { what: "opcode", .. })
        ));
        // Trailing garbage.
        let mut padded = encode_hello();
        padded.push(0xff);
        assert_eq!(decode_hello(&padded), Err(WireError::TrailingBytes));
        // Every repeated field claiming 2⁶⁰ elements in a tiny payload is
        // refused by name from its count, before anything is allocated.
        const HOSTILE: u64 = 1 << 60;
        let refused = |field: &str, got: Result<(), WireError>| {
            assert!(
                matches!(
                    &got,
                    Err(WireError::Decode(DecodeError::HostileLength { what, wanted, .. }))
                        if *what == field && *wanted == HOSTILE
                ),
                "{field}: {got:?}"
            );
        };
        let mut e = begin(OP_HELLO_OK);
        e.varint(PROTOCOL_VERSION.into());
        e.varint(HOSTILE);
        refused("datasets", decode_hello_ok(&e.finish()).map(drop));
        let batch = |payload: Vec<u8>| decode_estimate_batch(&payload).map(drop);
        refused("queries", batch(batch_with(|e| e.varint(HOSTILE))));
        refused(
            "query tables",
            batch(batch_with(|e| {
                e.len(1);
                e.varint(HOSTILE);
            })),
        );
        refused(
            "query joins",
            batch(batch_with(|e| {
                e.len(1);
                e.len(1);
                e.str("p");
                e.str("posts");
                e.varint(HOSTILE);
            })),
        );
        for tag in [2, 3] {
            refused(
                "AND/OR parts",
                batch(one_table_batch(|e| {
                    e.u8(tag);
                    e.varint(HOSTILE);
                })),
            );
        }
        refused(
            "IN values",
            batch(one_table_batch(|e| {
                e.u8(1); // a predicate
                e.u8(2); // IN
                e.str("kind");
                e.varint(HOSTILE);
            })),
        );
        let mut e = begin(OP_BATCH_RESULT);
        e.varint(9);
        e.varint(HOSTILE);
        refused("results", decode_batch_result(&e.finish()).map(drop));
        let mut e = begin(OP_BATCH_RESULT);
        e.varint(9);
        e.len(1);
        e.u8(0); // served
        e.varint(7); // model epoch
        e.varint(HOSTILE);
        refused("estimates", decode_batch_result(&e.finish()).map(drop));
        let mut e = begin(OP_HEALTH_OK);
        e.u8(0);
        e.varint(HOSTILE);
        refused("shards", decode_health_ok(&e.finish()).map(drop));
        // Past the element budget, a frame is refused before the parts
        // that overrun it are allocated: one AND of 2 M one-byte `True`
        // parts is a 2 MiB frame that would decode into 144 MB.
        let parts = 2_000_000;
        let and_of_trues = |parts: usize| {
            one_table_batch(|e| {
                e.u8(2);
                e.len(parts);
                for _ in 0..parts {
                    e.u8(0);
                }
            })
        };
        assert_eq!(
            batch(and_of_trues(parts)),
            Err(WireError::Decode(DecodeError::HostileLength {
                what: "AND/OR parts",
                wanted: parts as u64,
                available: MAX_BATCH_ELEMENTS as u64 - 2, // the query, its table
            }))
        );
        // At the budget a frame decodes; one element more is refused. No
        // element is larger than a table with its filter's root, so the
        // module docs' worst decoded size holds.
        use std::mem::size_of;
        let table = size_of::<TableRef>() + size_of::<FilterExpr>();
        assert_eq!(table, 120);
        let elements = [
            size_of::<Query>(),
            size_of::<JoinPredicate>(),
            size_of::<Value>(),
        ];
        assert!(elements.iter().all(|&size| size <= table));
        assert!(MAX_BATCH_ELEMENTS * table <= 30 << 20);
        assert_eq!(batch(and_of_trues(MAX_BATCH_ELEMENTS - 2)), Ok(()));
        assert!(matches!(
            batch(and_of_trues(MAX_BATCH_ELEMENTS - 1)),
            Err(WireError::Decode(DecodeError::HostileLength {
                what: "AND/OR parts",
                ..
            }))
        ));
        // A structurally invalid query (disconnected join graph) fails
        // validation at decode, not later at estimation.
        assert!(matches!(
            decode_estimate_batch(&joined_batch(0, 0)),
            Err(WireError::BadQuery(_))
        ));
    }

    /// Every decoder applied to a payload; none may panic. Results are
    /// deliberately ignored — a mutation can leave a frame valid (or valid
    /// for a *different* opcode), and that is fine; what matters is that
    /// arbitrary bytes always come back as `Ok`/`Err`, never an unwind.
    fn decode_with_everything(payload: &[u8]) {
        let _ = decode_hello(payload);
        let _ = decode_hello_ok(payload);
        let _ = decode_estimate_batch(payload);
        let _ = decode_batch_result(payload);
        let _ = decode_rejected(payload);
        let _ = decode_health(payload);
        let _ = decode_health_ok(payload);
        let _ = decode_metrics(payload);
        let _ = decode_metrics_ok(payload);
    }

    /// Deterministic seeded byte-mutation fuzz over every frame type: take
    /// each valid encoding, flip 1-8 random bytes (and sometimes truncate
    /// or extend), and require every decoder to return instead of
    /// panicking. Reproducible: a failure prints the seed that found it.
    #[test]
    fn seeded_byte_mutation_fuzz_never_panics() {
        use super::super::retry::splitmix64;

        let q = sample_query();
        let report = HealthReport {
            draining: false,
            shards: vec![ShardHealth {
                dataset: "stats".into(),
                model_epoch: 1,
                queue_depth: 2,
                queue_capacity: 8,
            }],
        };
        let results: Vec<Result<WireEstimates, String>> = vec![
            Ok(WireEstimates {
                model_epoch: 4,
                estimates: vec![(0b101, 12.5), (0b111, 9e9)],
            }),
            Err("slot error".into()),
        ];
        let mut frames: Vec<Vec<u8>> = vec![
            encode_hello(),
            encode_hello_ok(&["imdb".into(), "stats".into()]),
            encode_batch_result(9, &results),
            encode_rejected(3, RejectReason::Overloaded, "full"),
            encode_health(),
            encode_health_ok(&report),
            encode_metrics(),
            encode_metrics_ok("# HELP fj_requests_total Requests served.\nfj_requests_total 1\n"),
        ];
        for (deadline_ms, trace_id) in DEADLINE_TRACE_PAIRS {
            let qs = [q.clone(), q.clone()];
            frames.push(encode_estimate_batch(
                7,
                "stats",
                1,
                &qs,
                deadline_ms,
                trace_id,
            ));
        }

        for seed in 0..64u64 {
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xfa17;
            for round in 0..64 {
                let base = &frames[(splitmix64(&mut rng) as usize) % frames.len()];
                let mut mutated = base.clone();
                let flips = 1 + (splitmix64(&mut rng) as usize) % 8;
                for _ in 0..flips {
                    if mutated.is_empty() {
                        break;
                    }
                    let pos = (splitmix64(&mut rng) as usize) % mutated.len();
                    mutated[pos] ^= (splitmix64(&mut rng) % 255) as u8 + 1;
                }
                match splitmix64(&mut rng) % 4 {
                    0 => {
                        // Truncate somewhere, including to empty.
                        let cut = (splitmix64(&mut rng) as usize) % (mutated.len() + 1);
                        mutated.truncate(cut);
                    }
                    1 => {
                        // Append trailing garbage.
                        let extra = 1 + (splitmix64(&mut rng) as usize) % 16;
                        for _ in 0..extra {
                            mutated.push(splitmix64(&mut rng) as u8);
                        }
                    }
                    _ => {}
                }
                let ok = std::panic::catch_unwind(|| decode_with_everything(&mutated)).is_ok();
                assert!(
                    ok,
                    "decoder panicked: seed={seed} round={round} bytes={mutated:02x?}"
                );
            }
        }
    }
}
