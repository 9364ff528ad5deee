//! `lifecycle`: the write side of the model. One op is one cycle —
//! train on the base data, save, cold-load and answer a first query,
//! absorb the held-back tenth incrementally, then re-estimate the query
//! pool with the updated model. The same cycles, at a smaller scale,
//! give the three query workloads their `train_s`, `ttfe_s`, `update_s`.

use crate::harness::{
    plausible, repeat_setup, same_bits, Ctx, Failures, LifecycleTimes, Measured, QuerySide,
    ServiceCounters,
};
use crate::inputs::{self, Dataset};
use crate::stats::{lower_quartile, median, Window};
use crate::sys;
use crate::trace::{SpanId, Tracer};
use factorjoin::{load_model, save_model, FactorJoinModel, ModelDelta};
use fj_query::{subplan::count_subplans, Query};
use fj_storage::Catalog;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Cycles run and thrown away before timing (cold allocator, cold page
/// cache, first write of the model file).
const DISCARDED_CYCLES: usize = 2;
/// `updated_with` calls per cycle, each one sample of `update_s` (one
/// call is ≈ 3% of a cycle, so one per cycle would measure < 1 s a run).
const UPDATES_PER_CYCLE: usize = 3;
/// Pool queries per cycle on which the loaded model must equal the
/// trained one bit for bit.
const IDENTITY_CHECKS: usize = 8;

/// What every cycle works on.
pub struct Inputs {
    /// The ≈ 90% of rows dated before the split.
    base: Catalog,
    /// `base` with the held-back rows appended.
    full: Catalog,
    /// The appended rows, as the model sees them.
    delta: ModelDelta,
    pool: Vec<Query>,
    expected: Vec<usize>,
}

impl Inputs {
    pub fn build(scale: f64, seed: u64, draws: usize) -> Self {
        let (base, inserts) = inputs::split_stats(scale);
        let mut full = base.clone();
        let delta = inputs::append_slice(&mut full, &inserts, 0, 1);
        let pool = inputs::query_pool(&base, Dataset::Stats, seed, 0, draws);
        let expected = pool.iter().map(|q| count_subplans(q, 1)).collect();
        Inputs {
            base,
            full,
            delta,
            pool,
            expected,
        }
    }
}

/// Samples gathered over cycles.
#[derive(Default)]
pub struct Log {
    failures: Failures,
    train_s: Vec<f64>,
    ttfe_s: Vec<f64>,
    update_s: Vec<f64>,
    /// Each cycle's re-estimation pass.
    passes: Vec<Window>,
    /// Wall seconds of each whole cycle.
    cycle_s: Vec<f64>,
    fjm_bytes: u64,
    /// The updated model of the last cycle.
    updated: Option<FactorJoinModel>,
}

impl Log {
    pub fn times(&self) -> LifecycleTimes {
        LifecycleTimes {
            train_s: lower_quartile(&self.train_s),
            ttfe_s: lower_quartile(&self.ttfe_s),
            update_s: lower_quartile(&self.update_s),
        }
    }
}

fn timed<T>(tracer: &mut Tracer, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = tracer.span(name, SpanId::ROOT, op, f);
    (out, started.elapsed().as_secs_f64())
}

/// One cycle. Every check that fails is recorded against the cycle.
pub fn cycle(inputs: &Inputs, path: &Path, log: &mut Log, tracer: &mut Tracer) {
    let op = log.cycle_s.len() as u64;
    let cycle_started = Instant::now();
    let mut failed: Option<String> = None;
    let config = inputs::train_config(Dataset::Stats);

    let (trained, train_s) = timed(tracer, "core.train", op, || {
        FactorJoinModel::train(&inputs.base, config)
    });
    tracer.span("core.save_model", SpanId::ROOT, op, || {
        save_model(&trained, path).expect("save model")
    });
    log.fjm_bytes = std::fs::metadata(path).expect("stat model file").len();

    // Time to first estimate: open the file → first reply returned.
    let first = op as usize % inputs.pool.len();
    let ((loaded, first_reply), ttfe_s) = timed(tracer, "ttfe", op, || {
        let loaded = load_model(path, &inputs.base).expect("load model");
        let reply = loaded.estimate_subplans(&inputs.pool[first], 1);
        (loaded, reply)
    });
    for k in 0..IDENTITY_CHECKS.min(inputs.pool.len()) {
        let qi = (first + k) % inputs.pool.len();
        let want = trained.estimate_subplans(&inputs.pool[qi], 1);
        let got = if k == 0 {
            first_reply.clone()
        } else {
            loaded.estimate_subplans(&inputs.pool[qi], 1)
        };
        if !same_bits(&want, &got) {
            failed.get_or_insert_with(|| {
                format!("cycle {op}: loaded model differs on pool query {qi}: {got:?} != {want:?}")
            });
        }
    }
    drop(loaded);

    let mut updated = None;
    for _ in 0..UPDATES_PER_CYCLE {
        let (model, update_s) = timed(tracer, "core.updated_with", op, || {
            trained.updated_with(&inputs.full, &inputs.delta)
        });
        log.update_s.push(update_s);
        updated = Some(model);
    }
    let updated = updated.expect("at least one update per cycle");

    // Re-estimate the pool with the updated model: the query side of
    // this workload, and the check that an update leaves every bound
    // finite.
    let mut session = updated.subplan_estimator();
    let mut subplans = 0u64;
    let mut latencies_us = Vec::with_capacity(inputs.pool.len());
    let cpu_before = sys::process_cpu_seconds();
    let pass_started = Instant::now();
    for (qi, query) in inputs.pool.iter().enumerate() {
        let sent = Instant::now();
        let estimates = session.estimate_subplans(query, 1);
        latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
        subplans += estimates.len() as u64;
        if !plausible(&estimates, inputs.expected[qi]) {
            failed.get_or_insert_with(|| {
                format!("cycle {op}: updated model on pool query {qi}: {estimates:?}")
            });
        }
    }
    log.passes.push(Window {
        wall_s: pass_started.elapsed().as_secs_f64(),
        cpu_s: sys::process_cpu_seconds() - cpu_before,
        queries: inputs.pool.len() as u64,
        subplans,
        latencies_us,
    });
    drop(session);

    log.train_s.push(train_s);
    log.ttfe_s.push(ttfe_s);
    log.updated = Some(updated);
    log.cycle_s.push(cycle_started.elapsed().as_secs_f64());
    if let Some(message) = failed {
        log.failures.record(|| message);
    }
}

/// The reference cycles that give a query workload its `train_s`,
/// `ttfe_s` and `update_s`: the same cycle on a small split, run in three
/// blocks — when the process starts, after the timed phase and after the
/// oracle. The blocks are ≈ 20 s and ≈ 3 s apart because the sandbox
/// slows down for 5–20 s at a time: one block of 3 s lies wholly inside
/// such a phase in a third of the runs (spread of `train_s` over ten
/// runs: up to 22%), three blocks almost never do, and the lower
/// quartile over all their samples needs only one of them clean.
pub struct Reference {
    /// False on `lifecycle`, which measures its own cycles: blocks then
    /// do nothing.
    enabled: bool,
    log: Log,
}

impl Reference {
    pub fn new(enabled: bool) -> Self {
        Reference {
            enabled,
            log: Log::default(),
        }
    }

    /// One block: fresh inputs, the discarded cycles, then a third of the
    /// reference cycles. Everything but the samples is dropped again, so a
    /// block leaves no memory behind for the workload's peak to include.
    pub fn block(&mut self, ctx: &Ctx) {
        if !self.enabled {
            return;
        }
        let inputs = Inputs::build(ctx.sizing.reference_scale, ctx.seed, 1);
        let path = ctx.scratch.file("reference.fjm");
        let mut tracer = Tracer::new(false);
        let mut discarded = Log::default();
        for _ in 0..DISCARDED_CYCLES {
            cycle(&inputs, &path, &mut discarded, &mut tracer);
        }
        self.log.failures.absorb(discarded.failures);
        for _ in 0..ctx.sizing.reference_cycles.div_ceil(3) {
            cycle(&inputs, &path, &mut self.log, &mut tracer);
        }
        self.log.updated = None;
    }

    /// The lower quartiles over every block's samples; failed checks of
    /// the cycles go to `failures`.
    pub fn finish(self, failures: &mut Failures) -> LifecycleTimes {
        let times = self.log.times();
        failures.absorb(self.log.failures);
        times
    }
}

pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Measured {
    let path = ctx.scratch.file("lifecycle.fjm");
    let (inputs, setup_s) = repeat_setup(ctx.sizing.setup_reps, || {
        let inputs = Inputs::build(
            ctx.sizing.lifecycle_scale,
            ctx.seed,
            ctx.sizing.lifecycle_draws,
        );
        let mut discarded = Log::default();
        for _ in 0..DISCARDED_CYCLES {
            cycle(&inputs, &path, &mut discarded, &mut Tracer::new(false));
        }
        inputs
    });

    // Cycles are ≈ 0.33 s, so each segment ends with the first cycle
    // that finishes past its deadline.
    let mut log = Log::default();
    let mut untraced_cycles = 0;
    for (traced, duration) in ctx.segments() {
        tracer.set_enabled(traced);
        let started = Instant::now();
        while started.elapsed() < duration {
            cycle(&inputs, &path, &mut log, tracer);
        }
        tracer.set_enabled(false);
        if !traced {
            untraced_cycles = log.cycle_s.len();
        }
    }
    let peak_rss_mb = sys::peak_rss_mb();
    let (untraced, traced) = log.cycle_s.split_at(untraced_cycles);
    let trace_overhead_frac = if traced.is_empty() {
        0.0
    } else {
        1.0 - median(untraced) / median(traced)
    };

    let updated = log.updated.take().expect("at least one cycle");
    Measured {
        setup_s,
        attempted: log.cycle_s.len() as u64,
        query: QuerySide::from_windows(&log.passes),
        lifecycle: Some(log.times()),
        failures: log.failures,
        fjm_bytes: log.fjm_bytes,
        peak_rss_mb,
        counters: ServiceCounters::default(),
        trace_overhead_frac,
        inputs_hash: inputs::sql_hash(&inputs.base, &inputs.pool),
        dataset: Dataset::Stats,
        catalog: inputs.full,
        model: Arc::new(updated),
        queries: inputs.pool,
    }
}
