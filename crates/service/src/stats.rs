//! Service-level statistics: throughput, latency percentiles, saturation.
//!
//! Built on `fj-obs`: counters are relaxed atomics and latencies go into
//! lock-free log-linear [`Histogram`]s (bounded memory, wait-free record,
//! no sort-on-snapshot). Because histograms merge bucket-wise, per-shard
//! stats combine into a fleet view (`merged_snapshot`, surfaced as
//! `FjServer::stats_merged`) — something the old sort-a-`Mutex<Vec>`
//! reservoir could not do. Percentiles are quantized to the histogram's
//! bucket width: reported values are upper bucket bounds, at most
//! 1/32 ≈ 3.1 % above the exact sample.

use fj_obs::{Counter, Histogram, HistogramSnapshot, MetricsRegistry, Stage};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The shard's counters, named once: the discriminant indexes
/// [`StatsInner::counters`] and every per-shard `[u64; N]` of counts, and
/// [`COUNTERS`] gives each one its exported name and help text.
#[derive(Clone, Copy)]
enum Stat {
    Requests,
    Subplans,
    Errors,
    /// Requests refused by admission control (per-client quota) before
    /// reaching the queue.
    Rejected,
    /// Requests shed because the bounded queue had no room (load shedding
    /// chosen over producer blocking by the non-blocking submit path).
    Shed,
    /// Requests whose deadline passed while queued: a worker popped them
    /// already expired and shed them without estimating.
    Expired,
    /// Worker panics contained while estimating (the worker survived and
    /// the ticket resolved with an error instead of hanging).
    WorkerPanics,
    /// Sub-plan estimates served straight from the sub-plan cache,
    /// bit-identical to a fresh computation.
    CacheHits,
    /// Sub-plan estimates computed by the model and inserted into the
    /// cache (counts sub-plans, like [`Stat::CacheHits`], so
    /// hits/(hits+misses) is the per-sub-plan hit rate).
    CacheMisses,
    /// Live cache entries evicted to make room (capacity pressure;
    /// overwriting empty or stale-epoch slots is not counted).
    CacheEvictions,
}

const N: usize = Stat::CacheEvictions as usize + 1;

/// `(counter, metric name, help)` in exposition order.
const COUNTERS: [(Stat, &str, &str); N] = [
    (
        Stat::Requests,
        "fj_requests_total",
        "Requests served successfully.",
    ),
    (
        Stat::Subplans,
        "fj_subplans_total",
        "Sub-plan estimates produced across served requests.",
    ),
    (
        Stat::Errors,
        "fj_errors_total",
        "Requests that resolved with a service error (unknown dataset, contained worker panic).",
    ),
    (
        Stat::Rejected,
        "fj_rejected_total",
        "Requests refused by admission control before reaching the queue.",
    ),
    (
        Stat::Shed,
        "fj_shed_total",
        "Requests shed because the bounded queue was full.",
    ),
    (
        Stat::Expired,
        "fj_expired_total",
        "Requests whose deadline passed while queued; shed unserved.",
    ),
    (
        Stat::WorkerPanics,
        "fj_worker_panics_total",
        "Worker panics contained while estimating.",
    ),
    (
        Stat::CacheHits,
        "fj_subplan_cache_hits_total",
        "Sub-plan estimates served from the sub-plan cache.",
    ),
    (
        Stat::CacheMisses,
        "fj_subplan_cache_misses_total",
        "Sub-plan estimates computed by the model and cached.",
    ),
    (
        Stat::CacheEvictions,
        "fj_subplan_cache_evictions_total",
        "Live sub-plan cache entries evicted under capacity pressure.",
    ),
];

/// Shared counters the workers update as they serve (internal; read
/// through [`crate::EstimatorService::stats`]).
pub(crate) struct StatsInner {
    /// Indexed by [`Stat`].
    counters: [Counter; N],
    /// End-to-end latency (queue wait + estimation), nanoseconds.
    latency: Histogram,
    /// Queue-wait stage only, nanoseconds.
    queue_wait: Histogram,
    /// Estimation stage only, nanoseconds.
    estimation: Histogram,
    window_start: Mutex<Instant>,
}

impl StatsInner {
    pub(crate) fn new() -> Self {
        StatsInner {
            counters: std::array::from_fn(|_| Counter::new()),
            latency: Histogram::new(),
            queue_wait: Histogram::new(),
            estimation: Histogram::new(),
            window_start: Mutex::new(Instant::now()),
        }
    }

    fn counter(&self, stat: Stat) -> &Counter {
        &self.counters[stat as usize]
    }

    /// Record one served request. Stage durations are recorded in
    /// **nanoseconds** — `as_micros` truncation used to collapse fast
    /// in-process estimates (hundreds of ns) into the zero bucket.
    pub(crate) fn record_success(
        &self,
        subplans: usize,
        queue_wait: Duration,
        estimation: Duration,
    ) {
        self.counter(Stat::Requests).inc();
        self.counter(Stat::Subplans).add(subplans as u64);
        let qw = u64::try_from(queue_wait.as_nanos()).unwrap_or(u64::MAX);
        let est = u64::try_from(estimation.as_nanos()).unwrap_or(u64::MAX);
        self.latency.record(qw.saturating_add(est));
        self.queue_wait.record(qw);
        self.estimation.record(est);
    }

    pub(crate) fn record_error(&self) {
        self.counter(Stat::Errors).inc();
    }

    pub(crate) fn record_rejected(&self) {
        self.counter(Stat::Rejected).inc();
    }

    pub(crate) fn record_shed(&self, requests: usize) {
        self.counter(Stat::Shed).add(requests as u64);
    }

    pub(crate) fn record_expired(&self) {
        self.counter(Stat::Expired).inc();
    }

    /// Record a request fully served from the sub-plan cache (`subplans`
    /// estimates returned without touching the model).
    pub(crate) fn record_cache_hits(&self, subplans: usize) {
        self.counter(Stat::CacheHits).add(subplans as u64);
    }

    /// Record a request that missed the sub-plan cache: all `subplans`
    /// estimates were computed and (re)inserted, with `evictions` live
    /// entries displaced.
    pub(crate) fn record_cache_misses(&self, subplans: usize, evictions: usize) {
        self.counter(Stat::CacheMisses).add(subplans as u64);
        if evictions > 0 {
            self.counter(Stat::CacheEvictions).add(evictions as u64);
        }
    }

    /// A contained worker panic is both its own counter and an error: the
    /// request resolved with `ServiceError::WorkerPanicked`, so it belongs
    /// in the failure total too.
    pub(crate) fn record_worker_panic(&self) {
        self.counter(Stat::WorkerPanics).inc();
        self.counter(Stat::Errors).inc();
    }

    /// Clears all counters and restarts the measurement window (used
    /// between benchmark warm-up and the timed run).
    pub(crate) fn reset(&self) {
        self.counters.iter().for_each(Counter::reset);
        self.latency.clear();
        self.queue_wait.clear();
        self.estimation.clear();
        *self.window_start.lock().expect("stats lock") = Instant::now();
    }

    /// Point-in-time latency distribution (used by [`merged_snapshot`] and
    /// the wire-level stage metrics).
    pub(crate) fn latency_snapshot(&self) -> HistogramSnapshot {
        self.latency.snapshot()
    }

    /// Register this shard's counters and histograms into a metrics
    /// registry under a `dataset` label. Entries are closure-backed `Arc`
    /// clones, so the hot path never learns the registry exists.
    pub(crate) fn install_metrics(self: &Arc<Self>, registry: &MetricsRegistry, dataset: &str) {
        let d = dataset;
        for (stat, name, help) in COUNTERS {
            let me = Arc::clone(self);
            registry.register_counter_fn(name, help, &[("dataset", d)], move || {
                me.counter(stat).get()
            });
        }
        let me = Arc::clone(self);
        registry.register_histogram_fn(
            "fj_request_latency_seconds",
            "End-to-end request latency (queue wait + estimation).",
            &[("dataset", d)],
            move || me.latency.snapshot(),
        );
        let stage_help = "Per-stage time for served requests.";
        let me = Arc::clone(self);
        registry.register_histogram_fn(
            "fj_stage_duration_seconds",
            stage_help,
            &[("dataset", d), ("stage", Stage::QueueWait.name())],
            move || me.queue_wait.snapshot(),
        );
        let me = Arc::clone(self);
        registry.register_histogram_fn(
            "fj_stage_duration_seconds",
            stage_help,
            &[("dataset", d), ("stage", Stage::Estimation.name())],
            move || me.estimation.snapshot(),
        );
    }

    fn window_elapsed(&self) -> Duration {
        self.window_start.lock().expect("stats lock").elapsed()
    }

    fn counts(&self) -> [u64; N] {
        std::array::from_fn(|i| self.counters[i].get())
    }

    pub(crate) fn snapshot(&self, queue_depth: usize, queue_high_water: usize) -> StatsSnapshot {
        StatsSnapshot::new(
            &self.counts(),
            &self.latency_snapshot(),
            self.window_elapsed(),
            queue_depth,
            queue_high_water,
        )
    }
}

/// Merge per-shard stats into one fleet-wide snapshot: counters sum,
/// latency histograms merge bucket-wise (so percentiles describe the
/// concatenation of every shard's samples, quantized to bucket width),
/// queue depths sum, high-water and window take the max.
pub(crate) fn merged_snapshot<'a>(
    shards: impl IntoIterator<Item = (&'a StatsInner, usize, usize)>,
) -> StatsSnapshot {
    let mut hist = HistogramSnapshot::default();
    let mut window = Duration::ZERO;
    let mut depth = 0usize;
    let mut high_water = 0usize;
    let mut counts = [0u64; N];
    for (inner, queue_depth, queue_high_water) in shards {
        hist.merge_from(&inner.latency_snapshot());
        window = window.max(inner.window_elapsed());
        depth += queue_depth;
        high_water = high_water.max(queue_high_water);
        for (total, count) in counts.iter_mut().zip(inner.counts()) {
            *total += count;
        }
    }
    StatsSnapshot::new(&counts, &hist, window, depth, high_water)
}

/// A point-in-time view of service health since the last reset.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// Requests served successfully.
    pub requests: u64,
    /// Sub-plan estimates produced across those requests.
    pub subplans: u64,
    /// Requests that resolved with a [`crate::ServiceError`] after
    /// admission: unknown dataset at estimation time, plus contained
    /// worker panics (also counted in [`Self::worker_panics`]). Deadline
    /// expiries are tracked separately in [`Self::expired`]; admission
    /// refusals in [`Self::rejected`] and [`Self::shed`].
    pub errors: u64,
    /// Requests refused by admission control (per-client in-flight quota)
    /// before they reached the queue.
    pub rejected: u64,
    /// Requests shed on submission because the bounded queue was full (the
    /// non-blocking submit path refuses load instead of blocking producers).
    pub shed: u64,
    /// Requests whose deadline had already passed when a worker picked
    /// them up: shed unserved (the deadline-aware worker path refuses to
    /// burn CPU on work nobody is waiting for).
    pub expired: u64,
    /// Worker panics contained while estimating. Each one resolved its
    /// request with [`crate::ServiceError::WorkerPanicked`] and the worker
    /// kept serving; a nonzero count is a bug signal, not a wedge.
    pub worker_panics: u64,
    /// Sub-plan estimates served straight from the sub-plan cache —
    /// bit-identical to what the model would have computed (the cache
    /// stores raw `f64::to_bits` keyed by model epoch + canonical
    /// sub-plan fingerprint). Counted per sub-plan, not per request.
    pub cache_hits: u64,
    /// Sub-plan estimates computed by the model and inserted into the
    /// sub-plan cache (per sub-plan, so
    /// [`Self::cache_hit_rate`] = hits/(hits+misses)). A service with
    /// the cache disabled keeps both at zero.
    pub cache_misses: u64,
    /// Live sub-plan cache entries evicted under capacity pressure
    /// (stale-epoch overwrites after a model swap are not counted).
    pub cache_evictions: u64,
    /// Aggregate served requests per second over the window.
    pub requests_per_second: f64,
    /// Aggregate sub-plan estimates per second over the window — the
    /// throughput number the paper's serving story cares about.
    pub subplans_per_second: f64,
    /// Median end-to-end request latency (queue wait + estimation).
    ///
    /// Percentiles come from a log-linear histogram with bounded memory
    /// (recorded in nanoseconds, ~15 KiB per shard, never re-sorted):
    /// the reported value is the upper bound of the bucket holding the
    /// rank-th sample, at most 1/32 ≈ 3.1 % above the exact latency. The
    /// window covers *every* request since the last reset — no sliding
    /// reservoir — and shards merge exactly bucket-wise.
    pub p50_latency: Duration,
    /// 95th-percentile latency (same quantization as [`Self::p50_latency`]).
    pub p95_latency: Duration,
    /// 99th-percentile latency (same quantization as [`Self::p50_latency`]).
    pub p99_latency: Duration,
    /// Requests queued right now.
    pub queue_depth: usize,
    /// Deepest the request queue has been (capacity hit = producers were
    /// backpressured).
    pub queue_high_water: usize,
    /// Length of the measurement window.
    pub window: Duration,
}

impl StatsSnapshot {
    fn new(
        counts: &[u64; N],
        hist: &HistogramSnapshot,
        window: Duration,
        queue_depth: usize,
        queue_high_water: usize,
    ) -> Self {
        let count = |stat: Stat| counts[stat as usize];
        let secs = window.as_secs_f64().max(1e-12);
        StatsSnapshot {
            requests: count(Stat::Requests),
            subplans: count(Stat::Subplans),
            errors: count(Stat::Errors),
            rejected: count(Stat::Rejected),
            shed: count(Stat::Shed),
            expired: count(Stat::Expired),
            worker_panics: count(Stat::WorkerPanics),
            cache_hits: count(Stat::CacheHits),
            cache_misses: count(Stat::CacheMisses),
            cache_evictions: count(Stat::CacheEvictions),
            requests_per_second: count(Stat::Requests) as f64 / secs,
            subplans_per_second: count(Stat::Subplans) as f64 / secs,
            p50_latency: Duration::from_nanos(hist.value_at_quantile(0.50)),
            p95_latency: Duration::from_nanos(hist.value_at_quantile(0.95)),
            p99_latency: Duration::from_nanos(hist.value_at_quantile(0.99)),
            queue_depth,
            queue_high_water,
            window,
        }
    }

    /// Fraction of sub-plan estimates served from the cache,
    /// hits/(hits+misses); 0.0 when nothing has been looked up (or the
    /// cache is disabled).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} req ({} sub-plans, {} errors, {} rejected, {} shed, {} expired, \
             {} panics) in {:.2}s — \
             {:.0} req/s, {:.0} sub-plans/s; \
             cache {} hits / {} misses ({:.0}% hit rate, {} evictions); \
             latency p50 {:.0}µs p95 {:.0}µs p99 {:.0}µs; queue depth {} (high-water {})",
            self.requests,
            self.subplans,
            self.errors,
            self.rejected,
            self.shed,
            self.expired,
            self.worker_panics,
            self.window.as_secs_f64(),
            self.requests_per_second,
            self.subplans_per_second,
            self.cache_hits,
            self.cache_misses,
            self.cache_hit_rate() * 100.0,
            self.cache_evictions,
            self.p50_latency.as_secs_f64() * 1e6,
            self.p95_latency.as_secs_f64() * 1e6,
            self.p99_latency.as_secs_f64() * 1e6,
            self.queue_depth,
            self.queue_high_water,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The histogram quantizes upward by at most one bucket: 1/32 relative.
    fn assert_quantized(actual: Duration, exact: Duration) {
        let exact_ns = exact.as_nanos() as f64;
        let actual_ns = actual.as_nanos() as f64;
        assert!(
            actual_ns >= exact_ns && actual_ns <= exact_ns * (1.0 + 1.0 / 32.0) + 1.0,
            "{actual:?} not within one bucket above {exact:?}"
        );
    }

    fn success(s: &StatsInner, subplans: usize, latency: Duration) {
        // Split arbitrarily across the two stages; the end-to-end
        // histogram records the sum.
        s.record_success(subplans, latency / 2, latency - latency / 2);
    }

    #[test]
    fn counter_table_names_every_stat_once() {
        // Each row sits at its own discriminant, so no counter is exported
        // twice or left out.
        for (i, (stat, name, _)) in COUNTERS.iter().enumerate() {
            assert_eq!(*stat as usize, i, "{name}");
        }
    }

    #[test]
    fn percentiles_ordered_and_reset_clears() {
        let s = StatsInner::new();
        for us in [100u64, 200, 300, 400, 1000] {
            success(&s, 3, Duration::from_micros(us));
        }
        s.record_error();
        let snap = s.snapshot(2, 7);
        assert_eq!(snap.requests, 5);
        assert_eq!(snap.subplans, 15);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.rejected, 0);
        assert_eq!(snap.shed, 0);
        assert_eq!(snap.queue_depth, 2);
        assert_eq!(snap.queue_high_water, 7);
        assert!(snap.p50_latency <= snap.p95_latency);
        assert!(snap.p95_latency <= snap.p99_latency);
        // Nearest-rank p50 of five samples is the 3rd: 300µs, reported as
        // its bucket's upper bound.
        assert_quantized(snap.p50_latency, Duration::from_micros(300));
        assert!(snap.subplans_per_second > 0.0);
        let text = snap.to_string();
        assert!(text.contains("sub-plans/s"), "{text}");

        s.reset();
        let snap = s.snapshot(0, 7);
        assert_eq!(snap.requests, 0);
        assert_eq!(snap.p99_latency, Duration::ZERO);
    }

    #[test]
    fn sub_microsecond_latencies_are_not_truncated_to_zero() {
        // Regression for the as_micros bug: a 250 ns estimate used to
        // land in the zero bucket. Nanosecond recording keeps it visible.
        let s = StatsInner::new();
        s.record_success(1, Duration::from_nanos(100), Duration::from_nanos(150));
        let snap = s.snapshot(0, 0);
        assert!(
            snap.p50_latency >= Duration::from_nanos(250),
            "250 ns must not collapse to zero, got {:?}",
            snap.p50_latency
        );
        assert_quantized(snap.p50_latency, Duration::from_nanos(250));
    }

    #[test]
    fn memory_is_bounded_with_exact_counts_past_any_volume() {
        // The old reservoir slid past 4096 samples; the histogram keeps
        // every sample's bucket forever in fixed memory, so early samples
        // still shape the percentiles after 10k recordings.
        let s = StatsInner::new();
        for i in 0..10_000u64 {
            success(&s, 1, Duration::from_micros(i));
        }
        let snap = s.snapshot(0, 0);
        assert_eq!(snap.requests, 10_000);
        assert_quantized(snap.p50_latency, Duration::from_micros(4_999));
        assert_quantized(snap.p99_latency, Duration::from_micros(9_899));
    }

    #[test]
    fn merged_shards_match_concatenated_samples() {
        // stats_merged acceptance at the unit level: merging two shards'
        // histograms must equal bucketing the concatenated raw samples.
        let (a, b) = (StatsInner::new(), StatsInner::new());
        let mut all: Vec<u64> = Vec::new();
        for i in 1..=300u64 {
            let ns = i * 977; // spread across buckets
            all.push(ns);
            let shard = if i % 3 == 0 { &a } else { &b };
            shard.record_success(2, Duration::ZERO, Duration::from_nanos(ns));
        }
        all.sort_unstable();
        let merged = merged_snapshot([(&a, 1, 5), (&b, 2, 9)]);
        assert_eq!(merged.requests, 300);
        assert_eq!(merged.subplans, 600);
        assert_eq!(merged.queue_depth, 3, "queue depths sum");
        assert_eq!(merged.queue_high_water, 9, "high water takes the max");
        for (q, d) in [
            (0.50, merged.p50_latency),
            (0.95, merged.p95_latency),
            (0.99, merged.p99_latency),
        ] {
            let rank = ((q * all.len() as f64).ceil() as usize).clamp(1, all.len());
            let exact = Duration::from_nanos(all[rank - 1]);
            assert_quantized(d, exact);
        }
    }

    #[test]
    fn expired_and_panic_counters_roundtrip() {
        let s = StatsInner::new();
        s.record_expired();
        s.record_expired();
        s.record_expired();
        s.record_worker_panic();
        let snap = s.snapshot(0, 0);
        assert_eq!(snap.expired, 3);
        assert_eq!(snap.worker_panics, 1);
        assert_eq!(
            snap.errors, 1,
            "a contained panic is an estimation failure and belongs in the error total"
        );
        let text = snap.to_string();
        assert!(text.contains("3 expired"), "{text}");
        assert!(text.contains("1 panics"), "{text}");
        s.reset();
        let snap = s.snapshot(0, 0);
        assert_eq!(snap.expired, 0);
        assert_eq!(snap.worker_panics, 0);
    }

    #[test]
    fn rejected_and_shed_counters_roundtrip() {
        let s = StatsInner::new();
        s.record_rejected();
        s.record_rejected();
        s.record_shed(5);
        let snap = s.snapshot(0, 0);
        assert_eq!(snap.rejected, 2);
        assert_eq!(snap.shed, 5);
        let text = snap.to_string();
        assert!(text.contains("2 rejected"), "{text}");
        assert!(text.contains("5 shed"), "{text}");
        s.reset();
        let snap = s.snapshot(0, 0);
        assert_eq!(snap.rejected, 0);
        assert_eq!(snap.shed, 0);
    }

    #[test]
    fn cache_counters_roundtrip_reset_and_merge() {
        let s = StatsInner::new();
        s.record_cache_hits(9);
        s.record_cache_misses(3, 2);
        let snap = s.snapshot(0, 0);
        assert_eq!(snap.cache_hits, 9);
        assert_eq!(snap.cache_misses, 3);
        assert_eq!(snap.cache_evictions, 2);
        assert!((snap.cache_hit_rate() - 0.75).abs() < 1e-12);
        let text = snap.to_string();
        assert!(text.contains("9 hits / 3 misses"), "{text}");
        assert!(text.contains("2 evictions"), "{text}");
        // Merged shards sum the cache counters exactly.
        let other = StatsInner::new();
        other.record_cache_hits(1);
        other.record_cache_misses(1, 0);
        let merged = merged_snapshot([(&s, 0, 0), (&other, 0, 0)]);
        assert_eq!(merged.cache_hits, 10);
        assert_eq!(merged.cache_misses, 4);
        assert_eq!(merged.cache_evictions, 2);
        // Reset clears them with everything else.
        s.reset();
        let snap = s.snapshot(0, 0);
        assert_eq!(snap.cache_hits, 0);
        assert_eq!(snap.cache_misses, 0);
        assert_eq!(snap.cache_evictions, 0);
        assert_eq!(snap.cache_hit_rate(), 0.0, "empty rate is 0, not NaN");
    }

    #[test]
    fn install_metrics_exposes_shard_families() {
        let s = Arc::new(StatsInner::new());
        let reg = MetricsRegistry::new();
        s.install_metrics(&reg, "stats");
        s.record_success(2, Duration::from_micros(10), Duration::from_micros(20));
        s.record_rejected();
        s.record_cache_hits(5);
        s.record_cache_misses(2, 1);
        let text = reg.render();
        assert!(
            text.contains("fj_subplan_cache_hits_total{dataset=\"stats\"} 5"),
            "{text}"
        );
        assert!(
            text.contains("fj_subplan_cache_misses_total{dataset=\"stats\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("fj_subplan_cache_evictions_total{dataset=\"stats\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("fj_requests_total{dataset=\"stats\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("fj_rejected_total{dataset=\"stats\"} 1"),
            "{text}"
        );
        assert!(
            text.contains(
                "fj_stage_duration_seconds_bucket{dataset=\"stats\",stage=\"queue_wait\""
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "fj_stage_duration_seconds_count{dataset=\"stats\",stage=\"estimation\"} 1"
            ),
            "{text}"
        );
        assert!(
            text.contains("fj_request_latency_seconds_count{dataset=\"stats\"} 1"),
            "{text}"
        );
    }
}
