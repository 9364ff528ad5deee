//! What the three workload modules share: the run context, the record of
//! a timed segment, and the hand-over to the oracle and the layer suite.

use crate::inputs::{Dataset, Sizing};
use crate::stats::{self, Window};
use crate::sys::ScratchDir;
use crate::trace::Tracer;
use factorjoin::FactorJoinModel;
use fj_query::{Query, SubplanMask};
use fj_storage::Catalog;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One op in this many has its reply kept and, after the timed phase,
/// compared bit for bit with a direct estimate on the model that answered.
pub const BIT_CHECK_STRIDE: u64 = 64;
/// Replies kept for that comparison at most.
pub const BIT_CHECK_MAX: usize = 4096;
/// Failure messages kept for printing.
const FAILURES_PRINTED: usize = 5;

/// Everything a workload needs from the command line.
pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizing: &'a Sizing,
    pub scratch: &'a ScratchDir,
}

impl Ctx<'_> {
    /// The timed phase as `(tracing on?, duration)` segments. A traced run
    /// spends its first third untraced, so one run holds both sides of
    /// `trace.overhead_frac`.
    pub fn segments(&self) -> Vec<(bool, Duration)> {
        let total = Duration::from_secs_f64(self.seconds);
        if self.trace {
            vec![(false, total / 3), (true, total - total / 3)]
        } else {
            vec![(false, total)]
        }
    }
}

/// Failed checks: how many, and the first few offending ops.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub first: Vec<String>,
}

impl Failures {
    pub fn record(&mut self, message: impl FnOnce() -> String) {
        self.count += 1;
        if self.first.len() < FAILURES_PRINTED {
            self.first.push(message());
        }
    }

    pub fn absorb(&mut self, other: Failures) {
        self.count += other.count;
        let room = FAILURES_PRINTED.saturating_sub(self.first.len());
        self.first.extend(other.first.into_iter().take(room));
    }
}

/// Whether `estimates` could be a correct reply: one finite,
/// non-negative bound per connected sub-plan.
pub fn plausible(estimates: &[(SubplanMask, f64)], expected_subplans: usize) -> bool {
    estimates.len() == expected_subplans
        && estimates.iter().all(|(_, e)| e.is_finite() && *e >= 0.0)
}

/// Whether two replies agree to the last bit.
pub fn same_bits(a: &[(SubplanMask, f64)], b: &[(SubplanMask, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// The record of one timed segment of a query workload.
#[derive(Default)]
pub struct Segment {
    pub windows: Vec<Window>,
    pub ops: u64,
    pub failures: Failures,
}

/// Throughput and latency of the query side of a workload: each taken
/// per window, then the quartile on its good side over the windows (see
/// [`stats::upper_quartile`]).
#[derive(Debug, Clone, Copy)]
pub struct QuerySide {
    pub subplans_per_s: f64,
    pub cpu_us_per_query: f64,
    pub latency_p50_us: f64,
    pub latency_p95_us: f64,
    /// Over every sample of the run, not per window: a stall that hits a
    /// few windows shows here.
    pub latency_p99_us: f64,
    pub samples: usize,
    /// Coefficient of variation of the per-window rates: the run-quality
    /// flag.
    pub window_cv: f64,
}

impl QuerySide {
    pub fn from_windows(windows: &[Window]) -> Self {
        let per_window = |f: fn(&Window) -> f64| windows.iter().map(f).collect::<Vec<f64>>();
        let rates = per_window(Window::subplans_per_s);
        let all: Vec<f64> = windows
            .iter()
            .flat_map(|w| w.latencies_us.iter().copied())
            .collect();
        QuerySide {
            subplans_per_s: stats::upper_quartile(&rates),
            cpu_us_per_query: stats::lower_quartile(&per_window(Window::cpu_us_per_query)),
            latency_p50_us: stats::lower_quartile(&per_window(|w| stats::median(&w.latencies_us))),
            latency_p95_us: stats::lower_quartile(&per_window(|w| {
                stats::percentile_or_lower(&w.latencies_us, 95.0)
            })),
            latency_p99_us: stats::percentile_or_lower(&all, 99.0),
            samples: all.len(),
            window_cv: stats::cv(&rates),
        }
    }
}

/// Lower quartiles over lifecycle cycles.
#[derive(Debug, Clone, Copy)]
pub struct LifecycleTimes {
    pub train_s: f64,
    pub ttfe_s: f64,
    pub update_s: f64,
}

/// Counters of the serving tier over the timed phase; all zero on a
/// workload that does not go through it.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceCounters {
    pub cache_hit_frac: f64,
    pub cache_evictions_per_s: f64,
    pub queue_high_water: f64,
    pub shed: f64,
    pub rejected: f64,
    pub expired: f64,
    pub errors: f64,
    pub worker_panics: f64,
    pub swaps: f64,
    pub epoch_visible_us: f64,
}

/// What a workload hands back after its set-up and timed phase.
pub struct Measured {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    pub attempted: u64,
    pub failures: Failures,
    pub query: QuerySide,
    /// `None` on the query workloads, which take these from reference
    /// cycles instead.
    pub lifecycle: Option<LifecycleTimes>,
    pub fjm_bytes: u64,
    pub peak_rss_mb: f64,
    pub counters: ServiceCounters,
    /// 1 − traced ÷ untraced sub-plans per second; 0 in an untraced run.
    pub trace_overhead_frac: f64,
    /// Hash of the generated SQL text (and batch schedule).
    pub inputs_hash: u64,
    pub dataset: Dataset,
    /// The data the final model describes: what the oracle counts on.
    pub catalog: Catalog,
    /// The model that answered last.
    pub model: Arc<FactorJoinModel>,
    /// The workload's query pool, for the layer suite.
    pub queries: Vec<Query>,
}

/// Runs `setup` `reps` times, dropping all but the last result, and
/// returns it with the seconds each repetition took. The first is the
/// slow one (cold allocator, cold page cache); `setup_s` is the median.
pub fn repeat_setup<S>(reps: usize, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut seconds = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup());
        seconds.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), seconds)
}

/// Runs `drive` once per segment of the timed phase, switching the tracer
/// as the segment asks. Returns the numbers of the untraced segment, the
/// ops and failed checks of all of them, and 1 − traced ÷ untraced
/// throughput (0 in an untraced run).
pub fn timed_phase(
    ctx: &Ctx,
    tracer: &mut Tracer,
    mut drive: impl FnMut(Duration, &mut Tracer) -> Segment,
) -> (QuerySide, u64, Failures, f64) {
    let mut sides = Vec::new();
    let mut ops = 0;
    let mut failures = Failures::default();
    for (traced, duration) in ctx.segments() {
        tracer.set_enabled(traced);
        let segment = drive(duration, tracer);
        tracer.set_enabled(false);
        sides.push(QuerySide::from_windows(&segment.windows));
        ops += segment.ops;
        failures.absorb(segment.failures);
    }
    let overhead = match sides[..] {
        [untraced, traced] => 1.0 - traced.subplans_per_s / untraced.subplans_per_s,
        _ => 0.0,
    };
    (sides[0], ops, failures, overhead)
}
