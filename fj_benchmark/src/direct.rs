//! `direct_stats` and `direct_imdb`: a closed loop of one thread calling
//! `estimate_subplans` in process — the paper's §5.2 planning path with
//! no service, cache or wire around it.

use crate::harness::{
    plausible, repeat_setup, same_bits, timed_phase, Ctx, Failures, Measured, Segment,
    ServiceCounters, BIT_CHECK_MAX, BIT_CHECK_STRIDE,
};
use crate::inputs::{self, Dataset};
use crate::stats::WindowClock;
use crate::sys;
use crate::trace::{SpanId, Tracer};
use factorjoin::{load_model, save_model, EstimationScratch, FactorJoinModel};
use fj_query::{subplan::count_subplans, Query, SubplanMask};
use fj_storage::Catalog;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct State {
    catalog: Catalog,
    model: Arc<FactorJoinModel>,
    /// The session buffers `SubplanEstimator` would own; held here so
    /// the warm-up of the set-up carries into the timed phase.
    scratch: EstimationScratch,
    pool: Vec<Query>,
    /// `count_subplans` of each pool query.
    expected: Vec<usize>,
    fjm_bytes: u64,
    /// Next pool query; the pool is cycled in order.
    cursor: usize,
    /// Replies kept for the bit-identity check.
    kept: Vec<(usize, Vec<(SubplanMask, f64)>)>,
}

/// Generate, train, save, cold-load (the served model is the one a
/// restart would serve), draw the pool, and estimate the pool once so
/// every query shape has sized the session buffers.
fn setup(dataset: Dataset, ctx: &Ctx) -> State {
    let scale = match dataset {
        Dataset::Stats => ctx.sizing.stats_scale,
        Dataset::Imdb => ctx.sizing.imdb_scale,
    };
    let draws = match dataset {
        Dataset::Stats => ctx.sizing.stats_draws,
        Dataset::Imdb => ctx.sizing.imdb_draws,
    };
    let catalog = inputs::catalog(dataset, scale);
    let trained = FactorJoinModel::train(&catalog, inputs::train_config(dataset));
    let path = ctx.scratch.file("model.fjm");
    save_model(&trained, &path).expect("save model");
    let fjm_bytes = std::fs::metadata(&path).expect("stat model file").len();
    let model = Arc::new(load_model(&path, &catalog).expect("load model"));
    let pool = inputs::query_pool(&catalog, dataset, ctx.seed, 0, draws);
    let expected = pool.iter().map(|q| count_subplans(q, 1)).collect();
    let mut state = State {
        catalog,
        model,
        scratch: EstimationScratch::default(),
        pool,
        expected,
        fjm_bytes,
        cursor: 0,
        kept: Vec::new(),
    };
    for query in &state.pool {
        std::hint::black_box(
            state
                .model
                .estimate_subplans_with(&mut state.scratch, query, 1),
        );
    }
    state
}

/// The closed loop: one query at a time for `duration`.
fn drive(state: &mut State, duration: Duration, tracer: &mut Tracer) -> Segment {
    let mut segment = Segment::default();
    let mut clock = WindowClock::start(duration);
    let deadline = Instant::now() + duration;
    loop {
        let qi = state.cursor;
        state.cursor = (qi + 1) % state.pool.len();
        let span = tracer.begin("core.estimate_subplans", SpanId::ROOT, segment.ops);
        let sent = Instant::now();
        let estimates = state
            .model
            .estimate_subplans_with(&mut state.scratch, &state.pool[qi], 1);
        let done = Instant::now();
        tracer.end(span);
        let latency_us = done.duration_since(sent).as_secs_f64() * 1e6;
        clock.record(done, latency_us, 1, estimates.len() as u64);
        if !plausible(&estimates, state.expected[qi]) {
            segment.failures.record(|| {
                format!(
                    "op {} (pool query {qi}): implausible reply {estimates:?}",
                    segment.ops
                )
            });
        } else if segment.ops % BIT_CHECK_STRIDE == 0 && state.kept.len() < BIT_CHECK_MAX {
            state.kept.push((qi, estimates));
        }
        segment.ops += 1;
        if done >= deadline {
            break;
        }
    }
    segment.windows = clock.finish();
    segment
}

/// Each kept reply must equal, bit for bit, a fresh-buffer estimate of
/// the same query on the same model.
fn check_kept(state: &State) -> Failures {
    let mut failures = Failures::default();
    for (qi, reply) in &state.kept {
        let reference = state.model.estimate_subplans(&state.pool[*qi], 1);
        if !same_bits(reply, &reference) {
            failures.record(|| {
                format!("pool query {qi}: session reply {reply:?} != direct {reference:?}")
            });
        }
    }
    failures
}

pub fn run(dataset: Dataset, ctx: &Ctx, tracer: &mut Tracer) -> Measured {
    let (mut state, setup_s) = repeat_setup(ctx.sizing.setup_reps, || setup(dataset, ctx));
    let (query, attempted, mut failures, trace_overhead_frac) =
        timed_phase(ctx, tracer, |duration, tracer| {
            drive(&mut state, duration, tracer)
        });
    let peak_rss_mb = sys::peak_rss_mb();
    failures.absorb(check_kept(&state));
    Measured {
        setup_s,
        attempted,
        failures,
        query,
        lifecycle: None,
        fjm_bytes: state.fjm_bytes,
        peak_rss_mb,
        counters: ServiceCounters::default(),
        trace_overhead_frac,
        inputs_hash: inputs::sql_hash(&state.catalog, &state.pool),
        dataset,
        catalog: state.catalog,
        model: state.model,
        queries: state.pool,
    }
}
