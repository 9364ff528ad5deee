//! The metric vocabulary (the same names `BENCHMARK.json` declares), the
//! result line the driver reads, and its parser.

use serde_json::Value;
use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("subplans_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p95_us", "us"),
    ("cpu_us_per_query", "us"),
    ("ok_frac", "ratio"),
    ("qerr_p50", "ratio"),
    ("qerr_p95", "ratio"),
    ("underest_frac", "ratio"),
    ("model_bytes", "B"),
    ("fjm_bytes", "B"),
    ("peak_rss_mb", "MB"),
    ("train_s", "s"),
    ("ttfe_s", "s"),
    ("update_s", "s"),
];

/// `(name, unit)` of every per-layer metric, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("query.parse_us", "us"),
    ("query.enumerate_us", "us"),
    ("query.fingerprint_us", "us"),
    ("query.subplans_per_query", "count"),
    ("stats.profile_us_per_alias", "us"),
    ("stats.profile_share", "ratio"),
    ("core.estimate_us_per_query", "us"),
    ("core.ns_per_subplan", "ns"),
    ("core.join_elim_us_per_query", "us"),
    ("core.join_ns_per_bin", "ns"),
    ("core.arena_grow_events", "count"),
    ("core.train_serial_s", "s"),
    ("core.train_parallel_s", "s"),
    ("core.save_s", "s"),
    ("core.load_saved_s", "s"),
    ("core.load_model_s", "s"),
    ("core.refit_share", "ratio"),
    ("core.first_estimate_us", "us"),
    ("core.apply_insert_s", "s"),
    ("core.model_clone_s", "s"),
    ("par.train_speedup", "ratio"),
    ("service.handoff_us", "us"),
    ("service.batch_handoff_us", "us"),
    ("service.cache_hit_frac", "ratio"),
    ("service.cache_evictions_per_s", "1/s"),
    ("service.cache_get_ns", "ns"),
    ("service.cache_insert_ns", "ns"),
    ("service.queue_high_water", "count"),
    ("service.shed", "count"),
    ("service.rejected", "count"),
    ("service.expired", "count"),
    ("service.errors", "count"),
    ("service.worker_panics", "count"),
    ("registry.apply_insert_s", "s"),
    ("registry.swaps", "count"),
    ("registry.epoch_visible_us", "us"),
    ("server.rtt_depth1_us", "us"),
    ("server.wire_us_per_batch", "us"),
    ("server.stage.admission_us", "us"),
    ("server.stage.queue_wait_us", "us"),
    ("server.stage.estimation_us", "us"),
    ("server.stage.encode_us", "us"),
    ("server.stage.socket_write_us", "us"),
    ("client.residual_us_per_batch", "us"),
    ("obs.scrape_us", "us"),
    ("bench.oracle_s", "s"),
    ("bench.samples", "count"),
    ("bench.window_cv", "ratio"),
    ("latency_p99_us", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// Values measured so far, keyed by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under a declared `name`; a misspelt name is a bug
    /// in the harness and stops the run.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What one run prints as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(String, f64, String)>,
}

impl ResultLine {
    /// Collects the value of every metric in `declared`; a missing one is
    /// a bug in the harness and stops the run.
    pub fn new(attempted: u64, failed: u64, declared: &[(&str, &str)], values: &Metrics) -> Self {
        let metrics = declared
            .iter()
            .map(|(name, unit)| {
                let value = values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                (name.to_string(), value, unit.to_string())
            })
            .collect();
        ResultLine {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
        }
    }

    /// One line per metric, `name value unit`, for a person to read.
    pub fn table(&self) -> String {
        self.metrics
            .iter()
            .map(|(name, value, unit)| format!("{name} {value} {unit}\n"))
            .collect()
    }

    /// The JSON object of the driver's contract, on one line.
    pub fn to_json(&self) -> String {
        let metrics = Value::object(self.metrics.iter().map(|(name, value, unit)| {
            let entry = Value::object([
                ("value".to_string(), Value::from(*value)),
                ("unit".to_string(), Value::from(unit.as_str())),
            ]);
            (name.clone(), entry)
        }));
        serde_json::to_string(&Value::object([
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::from(self.attempted)),
            ("failed".to_string(), Value::from(self.failed)),
            ("metrics".to_string(), metrics),
        ]))
    }

    /// Parses a line written by [`Self::to_json`]. Metrics come back in
    /// name order (JSON objects carry none).
    pub fn parse(line: &str) -> Result<Self, String> {
        let v = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("missing key {k}"));
        let metrics = field("metrics")?
            .as_object()
            .ok_or("metrics is not an object")?
            .iter()
            .map(|(name, entry)| {
                let value = entry.get("value").and_then(Value::as_f64);
                let unit = entry.get("unit").and_then(Value::as_str);
                match (value, unit) {
                    (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                    _ => Err(format!("metric {name} lacks value or unit")),
                }
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ResultLine {
            correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
            attempted: field("attempted")?
                .as_u64()
                .ok_or("attempted is not a count")?,
            failed: field("failed")?.as_u64().ok_or("failed is not a count")?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        serde_json::from_str(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses")
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        benchmark_json()[section]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let text = |k: &str| m[k].as_str().expect("string field").to_string();
                (text("name"), text("unit"))
            })
            .collect()
    }

    fn owned(defs: &[(&str, &str)]) -> Vec<(String, String)> {
        defs.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_names_equal_benchmark_json() {
        assert_eq!(owned(END_TO_END), declared("end_to_end"));
        assert_eq!(owned(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok(name, "_.-", 64), "bad metric name {name}");
            assert!(name
                .chars()
                .next()
                .expect("non-empty")
                .is_ascii_alphanumeric());
            assert!(ok(unit, "_/%.-", 16), "bad unit {unit}");
            assert!(seen.insert(*name), "duplicate metric {name}");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn workloads_equal_benchmark_json() {
        let names: Vec<String> = benchmark_json()["workloads"]
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| w["name"].as_str().expect("name").to_string())
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    fn result_line_round_trips() {
        let mut values = Metrics::default();
        values.set("setup_s", 1.234_567_890_123);
        values.set("subplans_per_s", 356_841.25);
        let declared = &END_TO_END[..2];
        let line = ResultLine::new(1000, 0, declared, &values);
        assert!(line.correct);
        let json = line.to_json();
        assert!(!json.contains('\n'));
        let back = ResultLine::parse(&json).expect("parses");
        assert_eq!(back, line);
        assert!(line.table().contains("setup_s 1.234567890123 s\n"));

        let failed = ResultLine::new(10, 2, declared, &values);
        assert!(!failed.correct);
        assert_eq!(
            ResultLine::parse(&failed.to_json()).expect("parses"),
            failed
        );
        assert!(ResultLine::parse("{\"correct\":true}").is_err());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_refused() {
        Metrics::default().set("latency_ms", 1.0);
    }
}
