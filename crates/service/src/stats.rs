//! A shard's serving statistics, with one owner: the shard's service holds
//! the ten counters, the end-to-end latency histogram and the five
//! per-stage histograms of one dataset, and the network tier records its
//! stages into them.
//!
//! Built on `fj-obs`: counters are relaxed atomics and latencies go into
//! lock-free log-linear [`Histogram`]s recorded in nanoseconds. Two views
//! read them: the Prometheus exposition
//! ([`crate::EstimatorService::install_metrics`], which
//! [`crate::FjServer::metrics_text`] and the `Metrics` opcode return) carries
//! every counter and histogram, so percentiles and cross-shard merges are
//! the scraper's, bucket by bucket; [`StatsSnapshot`] is the counters and
//! queue gauges alone, for in-process callers.

use fj_obs::{Counter, Histogram, MetricsRegistry, Stage};
use std::sync::Arc;
use std::time::Duration;

/// The shard's counters, named once: the discriminant indexes
/// [`StatsInner::counters`], and [`COUNTERS`] gives each one its exported
/// name and help text.
#[derive(Clone, Copy)]
enum Stat {
    Requests,
    Subplans,
    Errors,
    /// Requests refused by admission control (per-client quota) before
    /// reaching the queue, counted per query.
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
    /// bit-identical to a fresh computation: a hit's key (model epoch,
    /// sub-plan mask, query fingerprint) was computed by the same
    /// deterministic fold over the same inputs.
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
        "Requests that resolved with a service error (unknown dataset, a query the model lacks, contained worker panic).",
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

/// Shared counters and histograms that the workers and the network tier
/// update as they serve (internal; read through
/// [`crate::EstimatorService::stats`] and the exposition).
pub(crate) struct StatsInner {
    /// Indexed by [`Stat`].
    counters: [Counter; N],
    /// End-to-end latency (queue wait + estimation), nanoseconds.
    latency: Histogram,
    /// Indexed by [`Stage`], nanoseconds. The workers record queue wait
    /// and estimation per query; the network tier records admission,
    /// encode and socket write per batch.
    stages: [Histogram; Stage::ALL.len()],
}

impl StatsInner {
    pub(crate) fn new() -> Self {
        StatsInner {
            counters: std::array::from_fn(|_| Counter::new()),
            latency: Histogram::new(),
            stages: std::array::from_fn(|_| Histogram::new()),
        }
    }

    fn counter(&self, stat: Stat) -> &Counter {
        &self.counters[stat as usize]
    }

    /// Record one stage's duration, in nanoseconds.
    pub(crate) fn record_stage(&self, stage: Stage, ns: u64) {
        self.stages[stage as usize].record(ns);
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
        self.record_stage(Stage::QueueWait, qw);
        self.record_stage(Stage::Estimation, est);
    }

    pub(crate) fn record_error(&self) {
        self.counter(Stat::Errors).inc();
    }

    pub(crate) fn record_rejected(&self, requests: usize) {
        self.counter(Stat::Rejected).add(requests as u64);
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

    /// Clears every counter and histogram (used between benchmark warm-up
    /// and the timed run).
    pub(crate) fn reset(&self) {
        self.counters.iter().for_each(Counter::reset);
        self.latency.clear();
        self.stages.iter().for_each(Histogram::clear);
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
        for stage in Stage::ALL {
            let me = Arc::clone(self);
            registry.register_histogram_fn(
                "fj_stage_duration_seconds",
                "Per-stage time for served requests.",
                &[("dataset", d), ("stage", stage.name())],
                move || me.stages[stage as usize].snapshot(),
            );
        }
    }

    pub(crate) fn snapshot(&self, queue_depth: usize, queue_high_water: usize) -> StatsSnapshot {
        let count = |stat| self.counter(stat).get();
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
            queue_depth,
            queue_high_water,
        }
    }
}

/// A shard's counters and queue gauges since start (or the last reset).
/// Latency distributions live in the exposition's histograms.
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// Requests served successfully.
    pub requests: u64,
    /// Sub-plan estimates produced across those requests.
    pub subplans: u64,
    /// Requests that resolved with a [`crate::ServiceError`] after
    /// admission: unknown dataset at estimation time, a query naming a
    /// table or column the model lacks, plus contained worker panics
    /// (also counted in [`Self::worker_panics`]). Deadline
    /// expiries are tracked separately in [`Self::expired`]; admission
    /// refusals in [`Self::rejected`] and [`Self::shed`].
    pub errors: u64,
    /// Requests refused by admission control (per-client in-flight quota)
    /// before they reached the queue; a refused batch counts each of its
    /// queries, like [`Self::shed`].
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
    /// stores raw `f64::to_bits` keyed by model epoch, sub-plan mask and
    /// the fingerprint of everything estimation reads of the query, so
    /// equal keys mean the same fold over the same inputs). Counted per
    /// sub-plan, not per request; a request hits only when all of its
    /// sub-plans do.
    pub cache_hits: u64,
    /// Sub-plan estimates computed by the model and inserted into the
    /// sub-plan cache (per sub-plan, so hits/(hits+misses) is the
    /// per-sub-plan hit rate). A service with the cache disabled keeps
    /// both at zero.
    pub cache_misses: u64,
    /// Live sub-plan cache entries evicted under capacity pressure
    /// (stale-epoch overwrites after a model swap are not counted).
    pub cache_evictions: u64,
    /// Requests queued right now.
    pub queue_depth: usize,
    /// Deepest the request queue has been (capacity hit = producers were
    /// backpressured).
    pub queue_high_water: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The histogram quantizes upward by at most one bucket: 1/32 relative.
    fn assert_quantized(actual_ns: u64, exact: Duration) {
        let exact_ns = exact.as_nanos() as f64;
        let actual = actual_ns as f64;
        assert!(
            actual >= exact_ns && actual <= exact_ns * (1.0 + 1.0 / 32.0) + 1.0,
            "{actual_ns} ns not within one bucket above {exact:?}"
        );
    }

    fn success(s: &StatsInner, subplans: usize, latency: Duration) {
        // Split arbitrarily across the two stages; the end-to-end
        // histogram records the sum.
        s.record_success(subplans, latency / 2, latency - latency / 2);
    }

    /// The exposition of one shard, as `FjServer::metrics_text` renders it.
    fn scrape(s: &Arc<StatsInner>) -> String {
        let reg = MetricsRegistry::new();
        s.install_metrics(&reg, "stats");
        reg.render()
    }

    /// The value of the exposition line for `series` (name plus labels).
    fn value(text: &str, series: &str) -> f64 {
        let line = text
            .lines()
            .find(|l| l.strip_prefix(series).is_some_and(|v| v.starts_with(' ')))
            .unwrap_or_else(|| panic!("missing {series} in:\n{text}"));
        line.rsplit(' ').next().unwrap().parse().expect("a number")
    }

    /// Nearest-rank quantile of `family{dataset="stats"}` in nanoseconds,
    /// as a scraper reads it off the cumulative buckets: the first `le`
    /// bound whose count reaches the rank.
    fn scraped_quantile(text: &str, family: &str, q: f64) -> u64 {
        let count = value(text, &format!("{family}_count{{dataset=\"stats\"}}"));
        let rank = (q * count).ceil().max(1.0);
        let prefix = format!("{family}_bucket{{dataset=\"stats\",le=\"");
        text.lines()
            .filter_map(|l| l.strip_prefix(&prefix))
            .find_map(|rest| {
                let (le, cum) = rest.split_once("\"} ")?;
                let le: f64 = le.parse().ok()?;
                (cum.parse::<f64>().ok()? >= rank).then(|| (le * 1e9).round() as u64)
            })
            .unwrap_or_else(|| panic!("no {family} bucket reaches rank {rank}"))
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
        let s = Arc::new(StatsInner::new());
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
        let text = scrape(&s);
        let family = "fj_request_latency_seconds";
        let (p50, p95, p99) = (
            scraped_quantile(&text, family, 0.50),
            scraped_quantile(&text, family, 0.95),
            scraped_quantile(&text, family, 0.99),
        );
        assert!(p50 <= p95 && p95 <= p99);
        // Nearest-rank p50 of five samples is the 3rd: 300µs, reported as
        // its bucket's upper bound.
        assert_quantized(p50, Duration::from_micros(300));

        s.reset();
        let snap = s.snapshot(0, 7);
        assert_eq!(snap.requests, 0);
        let text = scrape(&s);
        assert_eq!(
            value(&text, "fj_request_latency_seconds_count{dataset=\"stats\"}"),
            0.0
        );
        for stage in Stage::ALL {
            let series = format!(
                "fj_stage_duration_seconds_count{{dataset=\"stats\",stage=\"{}\"}}",
                stage.name()
            );
            assert_eq!(value(&text, &series), 0.0, "{series}");
        }
    }

    #[test]
    fn sub_microsecond_latencies_are_not_truncated_to_zero() {
        // Regression for the as_micros bug: a 250 ns estimate used to
        // land in the zero bucket. Nanosecond recording keeps it visible.
        let s = Arc::new(StatsInner::new());
        s.record_success(1, Duration::from_nanos(100), Duration::from_nanos(150));
        let text = scrape(&s);
        let sum = |series: &str| value(&text, series);
        assert_eq!(
            sum("fj_request_latency_seconds_sum{dataset=\"stats\"}"),
            250e-9
        );
        assert_eq!(
            sum("fj_stage_duration_seconds_sum{dataset=\"stats\",stage=\"queue_wait\"}"),
            100e-9
        );
        assert_eq!(
            sum("fj_stage_duration_seconds_sum{dataset=\"stats\",stage=\"estimation\"}"),
            150e-9
        );
        let p50 = scraped_quantile(&text, "fj_request_latency_seconds", 0.5);
        assert_quantized(p50, Duration::from_nanos(250));
    }

    #[test]
    fn memory_is_bounded_with_exact_counts_past_any_volume() {
        // The old reservoir slid past 4096 samples; the histogram keeps
        // every sample's bucket forever in fixed memory, so early samples
        // still shape the percentiles after 10k recordings.
        let s = Arc::new(StatsInner::new());
        for i in 0..10_000u64 {
            success(&s, 1, Duration::from_micros(i));
        }
        assert_eq!(s.snapshot(0, 0).requests, 10_000);
        let text = scrape(&s);
        let family = "fj_request_latency_seconds";
        assert_eq!(
            value(&text, &format!("{family}_count{{dataset=\"stats\"}}")),
            10_000.0
        );
        assert_quantized(
            scraped_quantile(&text, family, 0.50),
            Duration::from_micros(4_999),
        );
        assert_quantized(
            scraped_quantile(&text, family, 0.99),
            Duration::from_micros(9_899),
        );
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
        s.reset();
        let snap = s.snapshot(0, 0);
        assert_eq!(snap.expired, 0);
        assert_eq!(snap.worker_panics, 0);
    }

    #[test]
    fn rejected_and_shed_counters_roundtrip() {
        // Both count queries: a refused batch of three is three rejected.
        let s = StatsInner::new();
        s.record_rejected(3);
        s.record_rejected(1);
        s.record_shed(5);
        let snap = s.snapshot(0, 0);
        assert_eq!(snap.rejected, 4);
        assert_eq!(snap.shed, 5);
        s.reset();
        let snap = s.snapshot(0, 0);
        assert_eq!(snap.rejected, 0);
        assert_eq!(snap.shed, 0);
    }

    #[test]
    fn cache_counters_roundtrip_reset_and_merge() {
        let s = Arc::new(StatsInner::new());
        s.record_cache_hits(9);
        s.record_cache_misses(3, 2);
        let snap = s.snapshot(0, 0);
        assert_eq!(snap.cache_hits, 9);
        assert_eq!(snap.cache_misses, 3);
        assert_eq!(snap.cache_evictions, 2);
        // Two shards in one exposition: a scraper sums their series.
        let other = Arc::new(StatsInner::new());
        other.record_cache_hits(1);
        other.record_cache_misses(1, 0);
        let reg = MetricsRegistry::new();
        s.install_metrics(&reg, "a");
        other.install_metrics(&reg, "b");
        let text = reg.render();
        let merged = |name: &str| {
            ["a", "b"]
                .iter()
                .map(|d| value(&text, &format!("{name}{{dataset=\"{d}\"}}")))
                .sum::<f64>()
        };
        assert_eq!(merged("fj_subplan_cache_hits_total"), 10.0);
        assert_eq!(merged("fj_subplan_cache_misses_total"), 4.0);
        assert_eq!(merged("fj_subplan_cache_evictions_total"), 2.0);
        // Reset clears them with everything else.
        s.reset();
        let snap = s.snapshot(0, 0);
        assert_eq!(snap.cache_hits, 0);
        assert_eq!(snap.cache_misses, 0);
        assert_eq!(snap.cache_evictions, 0);
    }

    #[test]
    fn install_metrics_exposes_shard_families() {
        let s = Arc::new(StatsInner::new());
        let reg = MetricsRegistry::new();
        s.install_metrics(&reg, "stats");
        s.record_success(2, Duration::from_micros(10), Duration::from_micros(20));
        s.record_stage(Stage::Admission, 1_000);
        s.record_stage(Stage::Encode, 2_000);
        s.record_stage(Stage::SocketWrite, 3_000);
        s.record_rejected(1);
        s.record_cache_hits(5);
        s.record_cache_misses(2, 1);
        let text = reg.render();
        for (series, expected) in [
            ("fj_subplan_cache_hits_total{dataset=\"stats\"}", 5.0),
            ("fj_subplan_cache_misses_total{dataset=\"stats\"}", 2.0),
            ("fj_subplan_cache_evictions_total{dataset=\"stats\"}", 1.0),
            ("fj_requests_total{dataset=\"stats\"}", 1.0),
            ("fj_rejected_total{dataset=\"stats\"}", 1.0),
            ("fj_request_latency_seconds_count{dataset=\"stats\"}", 1.0),
        ] {
            assert_eq!(value(&text, series), expected, "{series}");
        }
        // One family, one HELP, all five stages.
        assert_eq!(
            text.matches("# HELP fj_stage_duration_seconds ").count(),
            1,
            "{text}"
        );
        for stage in Stage::ALL {
            let series = format!(
                "fj_stage_duration_seconds_count{{dataset=\"stats\",stage=\"{}\"}}",
                stage.name()
            );
            assert_eq!(value(&text, &series), 1.0, "{series}");
        }
        assert_eq!(
            value(
                &text,
                "fj_stage_duration_seconds_sum{dataset=\"stats\",stage=\"socket_write\"}"
            ),
            3e-6
        );
    }
}
