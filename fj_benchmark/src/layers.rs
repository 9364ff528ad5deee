//! The layer suite of a traced run: after the timed phase, every layer
//! is called on its own through its public functions, on the workload's
//! own model and queries, each call inside a span; the per-layer numbers
//! are read back from the spans. A layer is a crate (or module) of the
//! repository: `query`, `stats`, `core`, `par`, `service`, `server`, `obs`.

use crate::harness::{Ctx, Measured};
use crate::inputs::{self, SplitMix64, BATCH};
use crate::report::Metrics;
use crate::stats::{mean, median};
use crate::trace::{SpanId, Tracer};
use factorjoin::{
    load_model, load_saved, save_model, EstimationScratch, Factor, FactorJoinConfig,
    FactorJoinModel, JoinScratch, KeepVars,
};
use fj_query::{
    connected_subplans_into, parse_query, subplan::count_subplans, subplan_fingerprints, Query,
    QueryGraph,
};
use fj_service::{
    BatchOutcome, EstimatorService, FjClient, FjServer, ModelRegistry, ServerConfig, ServiceConfig,
    ShardSpec, SubplanCache,
};
use fj_stats::TableProfile;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

const DATASET: &str = "probe";
/// Pool queries the per-query probes run on (a multiple of [`BATCH`]).
const PROBE_QUERIES: usize = 512;
/// Entries of the production-default sub-plan cache.
const CACHE_ENTRIES: usize = 65_536;
/// Lookups and inserts timed against a full cache.
const CACHE_OPS: usize = 100_000;
/// Bins of the synthetic factors of the join-kernel probe (the paper's k).
const KERNEL_BINS: usize = 100;

fn span<T>(tracer: &mut Tracer, name: &'static str, op: usize, f: impl FnOnce() -> T) -> T {
    tracer.span(name, SpanId::ROOT, op as u64, f)
}

fn mean_us(tracer: &Tracer, name: &str) -> f64 {
    mean(&tracer.durations_us(name))
}

fn median_s(tracer: &Tracer, name: &str) -> f64 {
    median(&tracer.durations_us(name)) / 1e6
}

/// Runs every probe and records every per-layer timing in `out`.
pub fn run(measured: &Measured, ctx: &Ctx, tracer: &mut Tracer, out: &mut Metrics) {
    tracer.set_enabled(true);
    let pool = &measured.queries;
    let stride = (pool.len() / PROBE_QUERIES).max(1);
    let mut sample: Vec<Query> = pool
        .iter()
        .step_by(stride)
        .take(PROBE_QUERIES)
        .cloned()
        .collect();
    sample.truncate((sample.len() / BATCH).max(1) * BATCH);

    query_layer(measured, &sample, tracer, out);
    let estimate_us = estimation(measured, &sample, tracer, out);
    join_kernel(tracer, out);
    persistence(measured, ctx, tracer, out);
    incremental(measured, ctx, tracer, out);
    service(measured, &sample, estimate_us, tracer, out);
    cache(tracer, out);
    server(measured, &sample, ctx, tracer, out);
    tracer.set_enabled(false);
}

/// `query`: parse, enumerate, fingerprint, and the exact sub-plan count.
fn query_layer(measured: &Measured, sample: &[Query], tracer: &mut Tracer, out: &mut Metrics) {
    let mut masks = Vec::new();
    for (i, query) in sample.iter().enumerate() {
        let sql = query.to_sql(&measured.catalog);
        let parsed = span(tracer, "probe.query.parse_query", i, || {
            parse_query(&measured.catalog, &sql)
        });
        assert!(parsed.is_ok(), "generated SQL does not parse: {sql}");
        span(tracer, "probe.query.connected_subplans_into", i, || {
            connected_subplans_into(query, 1, &mut masks)
        });
        span(tracer, "probe.query.subplan_fingerprints", i, || {
            std::hint::black_box(subplan_fingerprints(query, 1, 0x5eed))
        });
    }
    let subplans: usize = measured.queries.iter().map(|q| count_subplans(q, 1)).sum();
    out.set("query.parse_us", mean_us(tracer, "probe.query.parse_query"));
    out.set(
        "query.enumerate_us",
        mean_us(tracer, "probe.query.connected_subplans_into"),
    );
    out.set(
        "query.fingerprint_us",
        mean_us(tracer, "probe.query.subplan_fingerprints"),
    );
    out.set(
        "query.subplans_per_query",
        subplans as f64 / measured.queries.len() as f64,
    );
}

/// `core` and `stats` on the estimation path: a whole estimate per
/// query, and beside it the single-table profiles the estimate makes
/// inside, replayed standalone. Returns the mean estimate microseconds.
fn estimation(
    measured: &Measured,
    sample: &[Query],
    tracer: &mut Tracer,
    out: &mut Metrics,
) -> f64 {
    let model = &measured.model;
    let mut scratch = EstimationScratch::default();
    for query in sample {
        std::hint::black_box(model.estimate_subplans_with(&mut scratch, query, 1));
    }
    let warm_grow_events = scratch.grow_events();
    let mut subplans = 0usize;
    let mut profile = TableProfile::default();
    for (i, query) in sample.iter().enumerate() {
        subplans += span(tracer, "probe.core.estimate_subplans", i, || {
            model.estimate_subplans_with(&mut scratch, query, 1).len()
        });
        let graph = QueryGraph::analyze(query);
        for (alias, tref) in query.tables().iter().enumerate() {
            let table = measured.catalog.table(&tref.table).expect("query table");
            let keys: Vec<&str> = graph
                .alias_keys(alias)
                .iter()
                .map(|&(column, _)| table.schema().column(column).name.as_str())
                .collect();
            let estimator = model
                .estimator(&tref.table)
                .expect("table has an estimator");
            span(tracer, "probe.stats.profile_into", i, || {
                estimator.profile_into(query.filter(alias), &keys, &mut profile)
            });
        }
    }
    let estimate_us = tracer.durations_us("probe.core.estimate_subplans");
    let profile_us = tracer.durations_us("probe.stats.profile_into");
    let estimate_total: f64 = estimate_us.iter().sum();
    let profile_total: f64 = profile_us.iter().sum();
    let per_query = estimate_total / sample.len() as f64;
    out.set("core.estimate_us_per_query", per_query);
    out.set(
        "core.ns_per_subplan",
        estimate_total * 1e3 / subplans as f64,
    );
    out.set("stats.profile_us_per_alias", mean(&profile_us));
    out.set("stats.profile_share", profile_total / estimate_total);
    out.set(
        "core.join_elim_us_per_query",
        per_query
            - mean_us(tracer, "probe.query.connected_subplans_into")
            - profile_total / sample.len() as f64,
    );
    out.set(
        "core.arena_grow_events",
        (scratch.grow_events() - warm_grow_events) as f64,
    );
    per_query
}

/// `core::factor`: the join kernel alone, on synthetic 100-bin factors
/// sharing one and two variables. Nanoseconds per output bin.
fn join_kernel(tracer: &mut Tracer, out: &mut Metrics) {
    let synth = |vars: usize, shift: usize| {
        let entries = (0..vars)
            .map(|v| {
                let var = v + shift;
                let dist = (0..KERNEL_BINS)
                    .map(|i| ((i * 7 + var * 3) % 23) as f64)
                    .collect();
                let mfv = (0..KERNEL_BINS)
                    .map(|i| (1 + (i + var) % 5) as f64)
                    .collect();
                (var, dist, mfv)
            })
            .collect();
        Factor::base(1000.0, entries)
    };
    let keep = KeepVars::all();
    let mut scratch = JoinScratch::default();
    let iterations = 2000;
    let mut bins = 0usize;
    for shared in [1usize, 2] {
        // `shared` common variables and one residual on each side.
        let (a, b) = (synth(shared + 1, 0), synth(shared + 1, 1));
        for _ in 0..iterations / 10 {
            std::hint::black_box(a.join_with(&b, &keep, &mut scratch).rows);
        }
        span(tracer, "probe.core.factor_join_loop", shared, || {
            for _ in 0..iterations {
                std::hint::black_box(a.join_with(&b, &keep, &mut scratch).rows);
            }
        });
        bins += iterations * (shared + 2) * KERNEL_BINS;
    }
    let total_us: f64 = tracer
        .durations_us("probe.core.factor_join_loop")
        .iter()
        .sum();
    out.set("core.join_ns_per_bin", total_us * 1e3 / bins as f64);
}

fn train(measured: &Measured, threads: usize) -> FactorJoinModel {
    let config = FactorJoinConfig {
        threads,
        ..inputs::train_config(measured.dataset)
    };
    FactorJoinModel::train(&measured.catalog, config)
}

/// `core` and `par` off the estimation path: training serial and
/// parallel, save, decode, load with the estimator refit, and the first
/// estimate of a freshly loaded model.
fn persistence(measured: &Measured, ctx: &Ctx, tracer: &mut Tracer, out: &mut Metrics) {
    let path = ctx.scratch.file("probe.fjm");
    let first_query = &measured.queries[0];
    for i in 0..ctx.sizing.slow_probe_samples {
        let trained = span(tracer, "probe.core.train_serial", i, || train(measured, 1));
        span(tracer, "probe.core.train_parallel", i, || {
            train(measured, 0)
        });
        span(tracer, "probe.core.save_model", i, || {
            save_model(&trained, &path).expect("save model")
        });
        span(tracer, "probe.core.load_saved", i, || {
            load_saved(&path).expect("decode model")
        });
        let loaded = span(tracer, "probe.core.load_model", i, || {
            load_model(&path, &measured.catalog).expect("load model")
        });
        span(tracer, "probe.core.first_estimate", i, || {
            std::hint::black_box(loaded.estimate_subplans(first_query, 1))
        });
    }
    let serial = median_s(tracer, "probe.core.train_serial");
    let parallel = median_s(tracer, "probe.core.train_parallel");
    let decode = median_s(tracer, "probe.core.load_saved");
    let load = median_s(tracer, "probe.core.load_model");
    out.set("core.train_serial_s", serial);
    out.set("core.train_parallel_s", parallel);
    out.set("par.train_speedup", serial / parallel);
    out.set("core.save_s", median_s(tracer, "probe.core.save_model"));
    out.set("core.load_saved_s", decode);
    out.set("core.load_model_s", load);
    out.set("core.refit_share", 1.0 - decode / load);
    out.set(
        "core.first_estimate_us",
        median(&tracer.durations_us("probe.core.first_estimate")),
    );
}

/// `core` and `service::registry` on the update path: a model trained on
/// the first nine tenths of every table absorbs the last tenth.
fn incremental(measured: &Measured, ctx: &Ctx, tracer: &mut Tracer, out: &mut Metrics) {
    let (head, delta) = inputs::head_split(&measured.catalog, 0.9);
    let base = Arc::new(FactorJoinModel::train(
        &head,
        inputs::train_config(measured.dataset),
    ));
    for i in 0..ctx.sizing.slow_probe_samples {
        span(tracer, "probe.core.model_clone", i, || {
            std::hint::black_box(FactorJoinModel::clone(&base))
        });
        span(tracer, "probe.core.updated_with", i, || {
            std::hint::black_box(base.updated_with(&measured.catalog, &delta))
        });
        let registry = ModelRegistry::new();
        registry.publish(DATASET, Arc::clone(&base));
        span(tracer, "probe.registry.apply_insert", i, || {
            registry
                .apply_insert(DATASET, &measured.catalog, &delta)
                .expect("dataset is registered")
        });
    }
    out.set(
        "core.model_clone_s",
        median_s(tracer, "probe.core.model_clone"),
    );
    out.set(
        "core.apply_insert_s",
        median_s(tracer, "probe.core.updated_with"),
    );
    out.set(
        "registry.apply_insert_s",
        median_s(tracer, "probe.registry.apply_insert"),
    );
}

fn start_service(measured: &Measured, cache_entries: usize) -> EstimatorService {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish(DATASET, Arc::clone(&measured.model));
    EstimatorService::start(
        registry,
        ServiceConfig::new(DATASET, 1).with_subplan_cache_entries(cache_entries),
    )
}

/// One depth-1 `submit_batch(..).wait_all()` round trip per batch of
/// `sample`, after a warm-up pass.
fn batch_round_trips(
    service: &EstimatorService,
    sample: &[Query],
    name: &'static str,
    tracer: &mut Tracer,
) {
    for traced in [false, true] {
        for (i, batch) in sample.chunks(BATCH).enumerate() {
            let started = Instant::now();
            let replies = service.submit_batch(batch).wait_all();
            if traced {
                tracer.record(name, started, Instant::now());
            }
            assert!(replies.iter().all(Result::is_ok), "probe batch {i} failed");
        }
    }
}

/// `service`: what the queue, the worker hand-off and the reply channel
/// add to a direct estimate, with the cache off so both sides compute.
fn service(
    measured: &Measured,
    sample: &[Query],
    estimate_us: f64,
    tracer: &mut Tracer,
    out: &mut Metrics,
) {
    let service = start_service(measured, 0);
    for traced in [false, true] {
        for (i, query) in sample.iter().enumerate() {
            let request = query.clone();
            let started = Instant::now();
            let reply = service.submit(request).wait();
            if traced {
                tracer.record("probe.service.submit_wait", started, Instant::now());
            }
            assert!(reply.is_ok(), "probe query {i} failed");
        }
    }
    batch_round_trips(&service, sample, "probe.service.submit_batch_wait", tracer);
    service.shutdown();
    out.set(
        "service.handoff_us",
        mean_us(tracer, "probe.service.submit_wait") - estimate_us,
    );
    out.set(
        "service.batch_handoff_us",
        mean_us(tracer, "probe.service.submit_batch_wait") - estimate_us * BATCH as f64,
    );
}

/// `service::cache`: one lookup and one insert against a full cache of
/// the production-default size.
fn cache(tracer: &mut Tracer, out: &mut Metrics) {
    let cache = SubplanCache::new(CACHE_ENTRIES);
    let mut rng = SplitMix64::new(0xcac4e);
    let mut keys: Vec<(u64, u64)> = (0..2 * CACHE_ENTRIES)
        .map(|_| (rng.next_u64() & 0xff, rng.next_u64()))
        .collect();
    for &(mask, fp) in &keys {
        cache.insert(1, mask, fp, fp);
    }
    // Half the lookups are of recently inserted keys, half of keys that
    // were never there.
    let lookups: Vec<(u64, u64)> = (0..CACHE_OPS)
        .map(|i| {
            if i % 2 == 0 {
                keys[keys.len() - 1 - i / 2 % CACHE_ENTRIES]
            } else {
                (rng.next_u64() & 0xff, rng.next_u64())
            }
        })
        .collect();
    span(tracer, "probe.service.cache_get_loop", 0, || {
        for &(mask, fp) in &lookups {
            std::hint::black_box(cache.get(1, mask, fp));
        }
    });
    keys.clear();
    keys.extend((0..CACHE_OPS).map(|_| (rng.next_u64() & 0xff, rng.next_u64())));
    span(tracer, "probe.service.cache_insert_loop", 0, || {
        for &(mask, fp) in &keys {
            std::hint::black_box(cache.insert(1, mask, fp, fp));
        }
    });
    let per_op_ns = |name: &str| mean_us(tracer, name) * 1e3 / CACHE_OPS as f64;
    out.set(
        "service.cache_get_ns",
        per_op_ns("probe.service.cache_get_loop"),
    );
    out.set(
        "service.cache_insert_ns",
        per_op_ns("probe.service.cache_insert_loop"),
    );
}

/// Summed seconds of every `fj_stage_duration_seconds` histogram of a
/// metrics scrape, by stage label.
pub fn stage_sums(scrape: &str) -> HashMap<String, f64> {
    let mut sums: HashMap<String, f64> = HashMap::new();
    for line in scrape.lines() {
        let Some(rest) = line.strip_prefix("fj_stage_duration_seconds_sum{") else {
            continue;
        };
        let stage = rest
            .split("stage=\"")
            .nth(1)
            .and_then(|s| s.split('"').next());
        let value = rest.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok());
        if let (Some(stage), Some(value)) = (stage, value) {
            *sums.entry(stage.to_string()).or_default() += value;
        }
    }
    sums
}

/// `server` and `obs`: a depth-1 round trip over loopback, the same
/// batches through the in-process service under the same cache setting
/// (the difference is the wire tier), the server's own stage histograms
/// over those round trips, and the cost of a scrape.
fn server(
    measured: &Measured,
    sample: &[Query],
    ctx: &Ctx,
    tracer: &mut Tracer,
    out: &mut Metrics,
) {
    let in_process = start_service(measured, CACHE_ENTRIES);
    batch_round_trips(
        &in_process,
        sample,
        "probe.service.submit_batch_wait.cached",
        tracer,
    );
    in_process.shutdown();

    let server = FjServer::bind(
        "127.0.0.1:0",
        vec![ShardSpec::new(DATASET, Arc::clone(&measured.model))],
        ServerConfig::new(1),
    )
    .expect("bind a loopback port");
    let mut client = FjClient::connect(server.local_addr()).expect("connect to the server");
    let mut before = HashMap::new();
    for traced in [false, true] {
        if traced {
            before = stage_sums(&server.metrics_text());
        }
        for (i, batch) in sample.chunks(BATCH).enumerate() {
            let started = Instant::now();
            let outcome = client.call(DATASET, 1, batch);
            if traced {
                tracer.record("probe.server.call_depth1", started, Instant::now());
            }
            assert!(
                matches!(outcome, Ok(BatchOutcome::Served(_))),
                "probe batch {i} was not served: {outcome:?}"
            );
        }
    }
    // The collector records a batch's last stages after it has written
    // the reply, so the scrape can trail the client by a moment.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let after = stage_sums(&server.metrics_text());
    for i in 0..ctx.sizing.probe_samples {
        span(tracer, "probe.obs.metrics_text", i, || {
            std::hint::black_box(server.metrics_text())
        });
    }
    drop(client);
    server.shutdown();

    let batches = (sample.len() / BATCH) as f64;
    // Microseconds per batch a stage took over the traced round trips.
    // Admission, encode and socket write are recorded once a batch and
    // estimation once a query, so its sum over a batch is what the one
    // worker spent on it.
    let stage_us = |stage: &str| {
        let sum = |scrape: &HashMap<String, f64>| scrape.get(stage).copied().unwrap_or_default();
        (sum(&after) - sum(&before)) * 1e6 / batches
    };
    let rtt = mean_us(tracer, "probe.server.call_depth1");
    let stages = [
        ("server.stage.admission_us", "admission"),
        ("server.stage.queue_wait_us", "queue_wait"),
        ("server.stage.estimation_us", "estimation"),
        ("server.stage.encode_us", "encode"),
        ("server.stage.socket_write_us", "socket_write"),
    ];
    let mut explained = 0.0;
    for (metric, stage) in stages {
        // A batch's queries wait in the queue side by side, not one
        // after another, so queue wait is reported per query and is not
        // part of the round trip the other stages add up to.
        if stage == "queue_wait" {
            out.set(metric, stage_us(stage) / BATCH as f64);
        } else {
            out.set(metric, stage_us(stage));
            explained += stage_us(stage);
        }
    }
    out.set("server.rtt_depth1_us", rtt);
    out.set(
        "server.wire_us_per_batch",
        rtt - mean_us(tracer, "probe.service.submit_batch_wait.cached"),
    );
    out.set("client.residual_us_per_batch", rtt - explained);
    out.set("obs.scrape_us", mean_us(tracer, "probe.obs.metrics_text"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_sums_reads_the_sum_lines() {
        let scrape = "\
# HELP fj_stage_duration_seconds Per-stage serving latency in seconds.
fj_stage_duration_seconds_bucket{dataset=\"d\",stage=\"encode\",le=\"0.001\"} 3
fj_stage_duration_seconds_sum{dataset=\"d\",stage=\"encode\"} 0.0025
fj_stage_duration_seconds_count{dataset=\"d\",stage=\"encode\"} 5
fj_stage_duration_seconds_sum{dataset=\"d\",stage=\"queue_wait\"} 0.5
fj_stage_duration_seconds_count{dataset=\"d\",stage=\"queue_wait\"} 80
fj_requests_total{dataset=\"d\"} 80
";
        let sums = stage_sums(scrape);
        assert_eq!(sums.len(), 2);
        assert_eq!(sums["encode"], 0.0025);
        assert_eq!(sums["queue_wait"], 0.5);
    }
}
