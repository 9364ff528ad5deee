//! `tcp_mixed`: the whole serving stack over loopback. One `FjClient`
//! keeps four batches of sixteen queries in flight against an `FjServer`
//! with one worker and the production-default sub-plan cache, half of
//! every batch replayed from a hot set (cache hits), half from a pool
//! 4.3 × the cache (misses and evictions), while a writer thread appends
//! held-back rows and hot-swaps the served model a dozen times a run.

use crate::harness::{
    plausible, repeat_setup, same_bits, timed_phase, Ctx, Failures, Measured, Segment,
    ServiceCounters, BIT_CHECK_MAX, BIT_CHECK_STRIDE,
};
use crate::inputs::{self, Dataset, Inserts, BATCH};
use crate::stats::{median, WindowClock};
use crate::sys;
use crate::trace::{SpanId, Tracer};
use factorjoin::{load_model, save_model, FactorJoinModel};
use fj_query::{subplan::count_subplans, Query};
use fj_service::{
    BatchOutcome, FjClient, FjServer, ModelHandle, ModelRegistry, ServerConfig, ShardSpec,
    WireEstimates,
};
use fj_storage::Catalog;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DATASET: &str = "stats";
/// Batches the client keeps in flight: an optimizer session waits for its
/// replies, so the loop is closed.
const IN_FLIGHT: usize = 4;

struct State {
    server: FjServer,
    client: FjClient,
    registry: Arc<ModelRegistry>,
    /// The writer's copy of the data: the base rows, growing by a slice
    /// per swap.
    catalog: Catalog,
    inserts: Inserts,
    /// Model and epoch the server started with.
    base: ModelHandle,
    batches: Vec<Vec<Query>>,
    /// `count_subplans` of every query of every batch.
    expected: Vec<Vec<usize>>,
    fjm_bytes: u64,
    /// Next batch of the schedule; it is cycled in order.
    cursor: usize,
    /// Replies kept for the bit-identity check: batch index and the
    /// served results.
    kept: Vec<(usize, Vec<WireEstimates>)>,
    /// When the client first saw each epoch.
    epoch_seen: Vec<(u64, Instant)>,
    last_epoch: u64,
}

/// Split the data, train on the base, save, cold-load, publish, bind a
/// server to an ephemeral loopback port, connect, draw the schedule and
/// send the warm-up batches.
fn setup(ctx: &Ctx) -> State {
    let (catalog, inserts) = inputs::split_stats(ctx.sizing.stats_scale);
    let trained = FactorJoinModel::train(&catalog, inputs::train_config(Dataset::Stats));
    let path = ctx.scratch.file("served.fjm");
    save_model(&trained, &path).expect("save model");
    let fjm_bytes = std::fs::metadata(&path).expect("stat model file").len();
    let model = Arc::new(load_model(&path, &catalog).expect("load model"));

    let registry = Arc::new(ModelRegistry::new());
    registry.publish(DATASET, model);
    let base = registry.get(DATASET).expect("just published");
    let server = FjServer::bind(
        "127.0.0.1:0",
        vec![ShardSpec::with_registry(DATASET, Arc::clone(&registry))],
        ServerConfig::new(1),
    )
    .expect("bind a loopback port");
    let client = FjClient::connect(server.local_addr()).expect("connect to the server");

    let batches = inputs::tcp_schedule(&catalog, ctx.seed, ctx.sizing);
    let expected = batches
        .iter()
        .map(|b| b.iter().map(|q| count_subplans(q, 1)).collect())
        .collect();
    let mut state = State {
        server,
        client,
        registry,
        catalog,
        inserts,
        last_epoch: base.epoch,
        base,
        batches,
        expected,
        fjm_bytes,
        cursor: 0,
        kept: Vec::new(),
        epoch_seen: Vec::new(),
    };
    let warmup = drive_batches(
        &mut state.client,
        &mut Loop {
            batches: &state.batches,
            expected: &state.expected,
            cursor: &mut state.cursor,
            kept: &mut Vec::new(),
            epoch_seen: &mut Vec::new(),
            last_epoch: &mut state.last_epoch,
        },
        Stop::AfterBatches(ctx.sizing.tcp_warmup_batches as u64),
        &mut Tracer::new(false),
    );
    assert_eq!(
        warmup.failures.count, 0,
        "warm-up failed: {:?}",
        warmup.failures.first
    );
    state
}

/// The parts of [`State`] the client loop touches (the writer thread
/// holds the others meanwhile).
struct Loop<'a> {
    batches: &'a [Vec<Query>],
    expected: &'a [Vec<usize>],
    cursor: &'a mut usize,
    kept: &'a mut Vec<(usize, Vec<WireEstimates>)>,
    epoch_seen: &'a mut Vec<(u64, Instant)>,
    last_epoch: &'a mut u64,
}

enum Stop {
    AfterBatches(u64),
    After(Duration),
}

/// Checks one reply; `Ok` carries its sub-plan count and results.
fn check_reply(
    outcome: BatchOutcome,
    expected: &[usize],
) -> Result<(u64, Vec<WireEstimates>), String> {
    let results = match outcome {
        BatchOutcome::Served(results) => results,
        BatchOutcome::Rejected { reason, message } => {
            return Err(format!("rejected ({reason}): {message}"))
        }
    };
    if results.len() != expected.len() {
        return Err(format!(
            "{} results for {} queries",
            results.len(),
            expected.len()
        ));
    }
    let mut served = Vec::with_capacity(results.len());
    let mut subplans = 0;
    for (slot, (result, want)) in results.into_iter().zip(expected).enumerate() {
        let reply = result.map_err(|e| format!("query {slot} dropped: {e}"))?;
        if !plausible(&reply.estimates, *want) {
            return Err(format!("query {slot}: implausible reply {reply:?}"));
        }
        subplans += reply.estimates.len() as u64;
        served.push(reply);
    }
    Ok((subplans, served))
}

/// The closed loop: [`IN_FLIGHT`] batches pipelined on one connection,
/// the oldest reply awaited, the next batch sent. One op is one batch,
/// timed from its send to its reply.
fn drive_batches(client: &mut FjClient, lp: &mut Loop, stop: Stop, tracer: &mut Tracer) -> Segment {
    let mut segment = Segment::default();
    let started = Instant::now();
    let mut clock = WindowClock::start(match stop {
        Stop::After(duration) => duration,
        Stop::AfterBatches(_) => Duration::MAX,
    });
    let mut sent_ops = 0u64;
    let mut in_flight: VecDeque<(u64, usize, Instant, SpanId)> = VecDeque::new();
    let mut stopping = false;
    loop {
        while !stopping && in_flight.len() < IN_FLIGHT {
            let bi = *lp.cursor;
            *lp.cursor = (bi + 1) % lp.batches.len();
            let op = tracer.begin("op", SpanId::ROOT, sent_ops);
            let sent = Instant::now();
            let id = tracer.span("client.send", op, sent_ops, || {
                client.send(DATASET, 1, &lp.batches[bi])
            });
            match id {
                Ok(id) => in_flight.push_back((id, bi, sent, op)),
                Err(e) => {
                    segment
                        .failures
                        .record(|| format!("op {sent_ops} (batch {bi}): send failed: {e}"));
                    segment.ops += 1;
                    tracer.end(op);
                }
            }
            sent_ops += 1;
            stopping = match stop {
                Stop::AfterBatches(n) => sent_ops >= n,
                Stop::After(_) => false,
            };
        }
        let Some((id, bi, sent, op)) = in_flight.pop_front() else {
            break;
        };
        let op_no = segment.ops;
        let outcome = tracer.span("client.recv", op, op_no, || client.recv(id));
        let done = Instant::now();
        tracer.end(op);
        segment.ops += 1;
        let checked = outcome
            .map_err(|e| format!("recv failed: {e}"))
            .and_then(|o| check_reply(o, &lp.expected[bi]));
        match checked {
            Err(why) => segment
                .failures
                .record(|| format!("op {op_no} (batch {bi}): {why}")),
            Ok((subplans, served)) => {
                let latency_us = done.duration_since(sent).as_secs_f64() * 1e6;
                clock.record(done, latency_us, BATCH as u64, subplans);
                let epoch = served[0].model_epoch;
                if epoch > *lp.last_epoch {
                    *lp.last_epoch = epoch;
                    lp.epoch_seen.push((epoch, done));
                }
                if op_no % BIT_CHECK_STRIDE == 0 && lp.kept.len() < BIT_CHECK_MAX {
                    lp.kept.push((bi, served));
                }
            }
        }
        if let Stop::After(duration) = stop {
            // Past the deadline the batches still in flight are awaited
            // and checked, and no more are sent.
            stopping = stopping || done.duration_since(started) >= duration;
        }
    }
    segment.windows = clock.finish();
    segment
}

/// What the writer thread did.
struct WriterLog {
    /// Model and epoch after each swap.
    handles: Vec<ModelHandle>,
    /// When each swap began and became visible in the registry.
    swaps: Vec<(Instant, Instant)>,
}

/// Every `interval`, append the next slice of held-back rows, record the
/// delta and hot-swap the served model; asleep in between.
fn writer(
    registry: &ModelRegistry,
    catalog: &mut Catalog,
    inserts: &Inserts,
    slices: usize,
    interval: Duration,
) -> WriterLog {
    let started = Instant::now();
    let mut log = WriterLog {
        handles: Vec::new(),
        swaps: Vec::new(),
    };
    for k in 0..slices {
        let due = started + interval * (k as u32 + 1);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let began = Instant::now();
        let delta = inputs::append_slice(catalog, inserts, k, slices);
        let epoch = registry
            .apply_insert(DATASET, catalog, &delta)
            .expect("dataset is registered");
        log.swaps.push((began, Instant::now()));
        let handle = registry.get(DATASET).expect("dataset is registered");
        assert_eq!(handle.epoch, epoch, "the writer is the only publisher");
        log.handles.push(handle);
    }
    log
}

/// Each kept reply must equal, bit for bit, a direct estimate on the
/// model of the epoch that answered it.
fn check_kept(state: &State, models: &HashMap<u64, Arc<FactorJoinModel>>) -> Failures {
    let mut failures = Failures::default();
    for (bi, served) in &state.kept {
        for (slot, reply) in served.iter().enumerate() {
            let ok = models.get(&reply.model_epoch).is_some_and(|model| {
                same_bits(
                    &reply.estimates,
                    &model.estimate_subplans(&state.batches[*bi][slot], 1),
                )
            });
            if !ok {
                failures.record(|| {
                    format!(
                        "batch {bi} query {slot}: reply of epoch {} differs from a direct estimate: {:?}",
                        reply.model_epoch, reply.estimates
                    )
                });
                break;
            }
        }
    }
    failures
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Measured {
    let (mut state, setup_s) = repeat_setup(ctx.sizing.setup_reps, || setup(ctx));
    state.server.reset_stats(DATASET);

    let total = Duration::from_secs_f64(ctx.seconds);
    let interval = total / (ctx.sizing.swaps as u32 + 1);
    let timed_started = Instant::now();
    let (timed, writer_log) = std::thread::scope(|scope| {
        let writer_thread = {
            let (registry, catalog, inserts) =
                (&*state.registry, &mut state.catalog, &state.inserts);
            scope.spawn(move || writer(registry, catalog, inserts, ctx.sizing.swaps, interval))
        };
        let mut lp = Loop {
            batches: &state.batches,
            expected: &state.expected,
            cursor: &mut state.cursor,
            kept: &mut state.kept,
            epoch_seen: &mut state.epoch_seen,
            last_epoch: &mut state.last_epoch,
        };
        let client = &mut state.client;
        let timed = timed_phase(ctx, tracer, |duration, tracer| {
            drive_batches(client, &mut lp, Stop::After(duration), tracer)
        });
        (timed, writer_thread.join().expect("writer thread panicked"))
    });
    let timed_s = timed_started.elapsed().as_secs_f64();
    let peak_rss_mb = sys::peak_rss_mb();
    let snapshot = state.server.stats(DATASET).expect("shard exists");

    let (query, attempted, mut failures, trace_overhead_frac) = timed;
    let mut models: HashMap<u64, Arc<FactorJoinModel>> = writer_log
        .handles
        .iter()
        .map(|h| (h.epoch, Arc::clone(&h.model)))
        .collect();
    models.insert(state.base.epoch, Arc::clone(&state.base.model));
    failures.absorb(check_kept(&state, &models));

    if ctx.trace {
        for (began, visible) in &writer_log.swaps {
            tracer.record("registry.apply_insert", *began, *visible);
        }
    }
    let apply_until: HashMap<u64, Instant> = writer_log
        .handles
        .iter()
        .zip(&writer_log.swaps)
        .map(|(h, (_, visible))| (h.epoch, *visible))
        .collect();
    let visible_us: Vec<f64> = state
        .epoch_seen
        .iter()
        .filter_map(|(epoch, seen)| {
            let published = apply_until.get(epoch)?;
            Some(seen.saturating_duration_since(*published).as_secs_f64() * 1e6)
        })
        .collect();
    let lookups = (snapshot.cache_hits + snapshot.cache_misses).max(1);
    let counters = ServiceCounters {
        cache_hit_frac: snapshot.cache_hits as f64 / lookups as f64,
        cache_evictions_per_s: snapshot.cache_evictions as f64 / timed_s,
        queue_high_water: snapshot.queue_high_water as f64,
        shed: snapshot.shed as f64,
        rejected: snapshot.rejected as f64,
        expired: snapshot.expired as f64,
        errors: snapshot.errors as f64,
        worker_panics: snapshot.worker_panics as f64,
        swaps: writer_log.handles.len() as f64,
        epoch_visible_us: if visible_us.is_empty() {
            0.0
        } else {
            median(&visible_us)
        },
    };

    let State {
        server,
        client,
        catalog,
        batches,
        fjm_bytes,
        base,
        ..
    } = state;
    drop(client);
    server.shutdown();
    let model = writer_log
        .handles
        .last()
        .map_or(base.model, |h| Arc::clone(&h.model));
    Measured {
        setup_s,
        attempted,
        failures,
        query,
        lifecycle: None,
        fjm_bytes,
        peak_rss_mb,
        counters,
        trace_overhead_frac,
        inputs_hash: inputs::schedule_hash(&catalog, &batches),
        dataset: Dataset::Stats,
        catalog,
        model,
        queries: batches.into_iter().flatten().collect(),
    }
}
