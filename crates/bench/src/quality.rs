//! Estimator-quality baseline tracking (`BENCH_quality.json`).
//!
//! The paper's headline claim is accuracy-per-cost (Tables 3/4): FactorJoin
//! matches or beats learned estimators on STATS-CEB / IMDB-JOB q-error
//! while training in minutes. Everything timed is measured by the
//! repository benchmark (`fj_benchmark/`); this module keeps the
//! *accuracy* claim honest: it runs the estimator sweep on both benchmark
//! workloads at the pinned scale, records per-workload p50/p95 q-error and
//! the plan-cost-vs-TrueCard ratio in a checked-in JSON history, and lets
//! CI fail on a quality regression past a tolerance — so an accuracy
//! regression surfaces in review exactly like a test failure.
//!
//! Everything measured here is **fully deterministic**: the synthetic
//! data, the workloads, and every recorded estimator are seeded, so a
//! fresh measurement on any machine reproduces the baseline bit-for-bit
//! unless the *code* changed. The default tolerance is therefore tight.
//!
//! The `bound` section is a ratchet on the paper's contract: with exact
//! (TrueScan) single-table statistics, the estimate of every sub-plan is
//! meant to be an upper bound. It counts, on the full paper workloads at
//! [`BOUND_SCALE`], the sub-plans whose estimate falls below the truth at
//! each of [`BOUND_BINS`], with the worst truth ÷ estimate, and the
//! multi-key aliases (an alias joined on two different variables) every
//! known under-estimate involves. The check fails if any count rises.

use crate::env::{BenchEnv, BenchKind};
use crate::experiments::paper_factorjoin;
use crate::harness::EndToEnd;
use crate::report::{percentile, q_error};
use factorjoin::{
    BaseEstimatorKind, BinBudget, BinningStrategy, FactorJoinConfig, FactorJoinModel,
};
use fj_baselines::{CardEst, JoinHist, JoinHistConfig, PessEst, PostgresLike, TrueCard};
use fj_query::{connected_subplans, Query, QueryGraph, SubplanMask};
use serde_json::Value;
use std::path::Path;

/// Regression tolerance: fail when a fresh quality metric exceeds
/// `threshold × baseline`. Tight because the measurement is deterministic.
pub const DEFAULT_THRESHOLD: f64 = 1.1;

/// Pinned data scale for the baseline measurement. Overridable through
/// `FJ_SCALE` for local experiments, but the checked-in baseline and the CI
/// check both use this value so numbers stay comparable across commits.
pub const PINNED_SCALE: f64 = 0.1;

/// Pinned bin count (the paper's default k = 100).
pub const PINNED_BINS: usize = 100;

/// Evaluation queries per workload for the pinned measurement. Small
/// enough for CI (true cardinalities of every sub-plan are computed by
/// executing the joins), large enough for stable percentiles.
pub const PINNED_QUERIES: usize = 16;

/// Data scale of the bound ratchet: the paper workloads in full.
pub const BOUND_SCALE: f64 = 1.0;

/// Bins per key group of the bound ratchet's cells; `None` is one bin per
/// key value (equal-depth with more bins than values).
pub const BOUND_BINS: [Option<usize>; 4] = [Some(10), Some(100), Some(1000), None];

/// Bins that give every key value its own bin under equal-depth binning.
const PER_VALUE_BINS: usize = 10_000_000;

/// Relative shortfall below which an estimate is not an under-estimate:
/// with one bin per value the bound is the truth, and the rounding of its
/// floating-point products must not count as a violation.
const ROUNDING: f64 = 1e-9;

/// Under-estimates of one bin budget on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundCell {
    /// The bin budget: `k=10`, …, or `per-value`.
    pub bins: String,
    /// Sub-plans whose estimate is below the true cardinality (by more
    /// than a relative 10⁻⁹ of rounding).
    pub underestimates: usize,
    /// The largest truth ÷ estimate among them (1 when there is none).
    pub worst_ratio: f64,
}

/// The bound ratchet on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundWorkload {
    /// Workload name (`STATS-CEB`, `IMDB-JOB`).
    pub workload: String,
    /// Connected sub-plans scored (single tables included).
    pub subplans: usize,
    /// Alias occurrences over all queries.
    pub aliases: usize,
    /// Aliases joined on two or more different variables in their query.
    pub multi_key_aliases: usize,
    /// Sub-plans of two or more aliases.
    pub multi_table_subplans: usize,
    /// Of those, the ones with an alias joined on two different variables
    /// inside the sub-plan.
    pub multi_key_subplans: usize,
    /// One cell per bin budget, in [`BOUND_BINS`] order.
    pub cells: Vec<BoundCell>,
}

/// The bound ratchet: TrueScan bases on both paper workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundSample {
    /// Data scale measured at.
    pub scale: f64,
    /// Per-workload cells.
    pub workloads: Vec<BoundWorkload>,
}

/// Quality of one estimation method on one workload.
#[derive(Debug, Clone)]
pub struct MethodQuality {
    /// Method display name (`postgres`, `factorjoin`).
    pub method: String,
    /// Median q-error over join sub-plans (≥ 2 aliases).
    pub p50_qerror: f64,
    /// 95th-percentile q-error over join sub-plans.
    pub p95_qerror: f64,
    /// Total simulated execution cost of the plans chosen under this
    /// method's estimates, divided by the cost of TrueCard's plans (both
    /// costed with true cardinalities). 1.0 = optimal planning.
    pub plan_cost_ratio: f64,
}

/// Quality on one query template (join shape) of a workload.
#[derive(Debug, Clone)]
pub struct TemplateQuality {
    /// Template signature: the sorted joined tables, e.g.
    /// `comments+posts+votes`. A gate failure on a template names the
    /// query shape that regressed instead of an aggregate.
    pub template: String,
    /// Queries of this shape in the workload.
    pub queries: usize,
    /// Per-method quality on this shape only.
    pub methods: Vec<MethodQuality>,
}

impl TemplateQuality {
    /// The named method's quality on this template, if recorded.
    pub fn method(&self, name: &str) -> Option<&MethodQuality> {
        self.methods.iter().find(|m| m.method == name)
    }
}

/// One workload's quality measurements.
#[derive(Debug, Clone)]
pub struct WorkloadQuality {
    /// Workload name (`STATS-CEB`, `IMDB-JOB`).
    pub workload: String,
    /// Queries evaluated.
    pub queries: usize,
    /// Join sub-plans scored per method.
    pub subplans: usize,
    /// Per-method quality, in measurement order.
    pub methods: Vec<MethodQuality>,
    /// Per-template breakdown (same metrics, grouped by join shape).
    pub templates: Vec<TemplateQuality>,
}

/// One recorded quality sample (both workloads).
#[derive(Debug, Clone)]
pub struct QualitySample {
    /// Free-form label (commit summary, experiment name, …).
    pub label: String,
    /// Data scale measured at.
    pub scale: f64,
    /// Bins per key group (the paper's k).
    pub bins: usize,
    /// Per-workload measurements.
    pub workloads: Vec<WorkloadQuality>,
    /// The bound ratchet, when recorded (see [`measure_bound`]).
    pub bound: Option<BoundSample>,
}

impl QualitySample {
    /// The named workload's measurements, if recorded.
    pub fn workload(&self, name: &str) -> Option<&WorkloadQuality> {
        self.workloads.iter().find(|w| w.workload == name)
    }
}

impl WorkloadQuality {
    /// The named method's quality, if recorded.
    pub fn method(&self, name: &str) -> Option<&MethodQuality> {
        self.methods.iter().find(|m| m.method == name)
    }

    /// The named template's breakdown, if recorded.
    pub fn template(&self, signature: &str) -> Option<&TemplateQuality> {
        self.templates.iter().find(|t| t.template == signature)
    }
}

/// A query's template signature: its joined tables, sorted and joined
/// with `+` (aliases collapse — a self-join lists its table twice).
pub fn template_of(q: &Query) -> String {
    let mut tables: Vec<&str> = q.tables().iter().map(|t| t.table.as_str()).collect();
    tables.sort_unstable();
    tables.join("+")
}

fn measure_workload(kind: BenchKind, scale: f64, queries: usize) -> WorkloadQuality {
    let env = BenchEnv::build(kind, scale, Some(queries));
    let runner = EndToEnd::new(&env);
    // TrueCard's plans (costed with truth) are the plan-cost denominator.
    let mut oracle = TrueCard::new(&env.catalog);
    let mut oracle_runner = EndToEnd::new(&env);
    oracle_runner.zero_planning = true;
    let oracle_result = oracle_runner.run(&mut oracle);
    let oracle_exec = oracle_result.exec_s;

    // Group query indices by template signature, in first-seen order.
    let signatures: Vec<String> = env.queries.iter().map(template_of).collect();
    let mut template_order: Vec<String> = Vec::new();
    for sig in &signatures {
        if !template_order.contains(sig) {
            template_order.push(sig.clone());
        }
    }
    let mut templates: Vec<TemplateQuality> = template_order
        .iter()
        .map(|sig| TemplateQuality {
            template: sig.clone(),
            queries: signatures.iter().filter(|s| *s == sig).count(),
            methods: Vec::new(),
        })
        .collect();

    let mut methods = Vec::new();
    let mut subplans = 0;
    let mut run = |est: &mut dyn CardEst| {
        let r = runner.run(est);
        let qerrs: Vec<f64> = r.est_truth.iter().map(|&(e, t)| q_error(e, t)).collect();
        subplans = qerrs.len();
        methods.push(MethodQuality {
            method: r.method.clone(),
            p50_qerror: percentile(&qerrs, 50.0),
            p95_qerror: percentile(&qerrs, 95.0),
            plan_cost_ratio: r.exec_s / oracle_exec.max(1e-12),
        });
        // Per-template: slice the flat per-sub-plan q-errors back to their
        // query via the harness's per-query counts, then group by shape.
        let mut offsets = Vec::with_capacity(env.queries.len());
        let mut at = 0usize;
        for &n in &r.per_query_subplans {
            offsets.push(at);
            at += n;
        }
        for t in templates.iter_mut() {
            let idx: Vec<usize> = (0..env.queries.len())
                .filter(|&qi| signatures[qi] == t.template)
                .collect();
            let t_qerrs: Vec<f64> = idx
                .iter()
                .flat_map(|&qi| {
                    qerrs[offsets[qi]..offsets[qi] + r.per_query_subplans[qi]]
                        .iter()
                        .copied()
                })
                .collect();
            if t_qerrs.is_empty() {
                // Every query of this shape was unsupported by the method
                // (e.g. a baseline rejecting LIKE): no q-errors to gate.
                continue;
            }
            let t_exec: f64 = idx.iter().map(|&qi| r.per_query_exec[qi]).sum();
            let t_oracle: f64 = idx.iter().map(|&qi| oracle_result.per_query_exec[qi]).sum();
            t.methods.push(MethodQuality {
                method: r.method.clone(),
                p50_qerror: percentile(&t_qerrs, 50.0),
                p95_qerror: percentile(&t_qerrs, 95.0),
                plan_cost_ratio: t_exec / t_oracle.max(1e-12),
            });
        }
    };
    let mut pg = PostgresLike::build(&env.catalog);
    run(&mut pg);
    if kind == BenchKind::StatsCeb {
        // JoinHist is a STATS-only baseline in the paper's Table 3 (its
        // per-bin uniformity model has no LIKE support).
        let mut jh = JoinHist::build(&env.catalog, JoinHistConfig::classic(PINNED_BINS));
        run(&mut jh);
    }
    let mut pe = PessEst::new(&env.catalog, 512);
    run(&mut pe);
    let mut fj = paper_factorjoin(&env);
    run(&mut fj);

    WorkloadQuality {
        workload: env.name().to_string(),
        queries: env.queries.len(),
        subplans,
        methods,
        templates,
    }
}

/// Runs the pinned estimator sweep on both benchmarks: PostgresLike,
/// JoinHist (STATS only), PessEst, and paper-configured FactorJoin on
/// STATS-CEB and IMDB-JOB, `queries` evaluation queries each, at `scale`,
/// with a per-template breakdown of every metric. Deterministic for a
/// given (scale, queries) pair.
pub fn measure(label: &str, scale: f64, queries: usize) -> QualitySample {
    let queries = queries.max(4);
    QualitySample {
        label: label.to_string(),
        scale,
        bins: PINNED_BINS,
        workloads: vec![
            measure_workload(BenchKind::StatsCeb, scale, queries),
            measure_workload(BenchKind::ImdbJob, scale, queries),
        ],
        bound: None,
    }
}

/// Whether `alias` joins on two or more different variables with other
/// aliases of `mask`.
fn multi_key(graph: &QueryGraph, mask: SubplanMask, alias: usize) -> bool {
    let others = mask & !(1 << alias);
    let mut vars: Vec<usize> = graph
        .alias_keys(alias)
        .iter()
        .map(|&(_, var)| var)
        .filter(|&var| graph.var_aliases(var) & others != 0)
        .collect();
    vars.sort_unstable();
    vars.dedup();
    vars.len() >= 2
}

fn measure_bound_workload(kind: BenchKind, scale: f64) -> BoundWorkload {
    let env = BenchEnv::build(kind, scale, None);
    let (mut aliases, mut multi_key_aliases) = (0, 0);
    let (mut subplans, mut multi_table_subplans, mut multi_key_subplans) = (0, 0, 0);
    for q in &env.queries {
        let graph = QueryGraph::analyze(q);
        let all = (1u64 << q.num_tables()) - 1;
        aliases += q.num_tables();
        multi_key_aliases += (0..q.num_tables())
            .filter(|&a| multi_key(&graph, all, a))
            .count();
        for mask in connected_subplans(q, 1) {
            subplans += 1;
            if mask.count_ones() >= 2 {
                multi_table_subplans += 1;
                let members = (0..q.num_tables()).filter(|a| mask & (1 << a) != 0);
                multi_key_subplans +=
                    usize::from(members.into_iter().any(|a| multi_key(&graph, mask, a)));
            }
        }
    }
    let cells = BOUND_BINS
        .iter()
        .map(|&bins| {
            let (bin_budget, strategy, label) = match bins {
                Some(k) => (
                    BinBudget::Uniform(k),
                    BinningStrategy::Gbsa,
                    format!("k={k}"),
                ),
                None => (
                    BinBudget::Uniform(PER_VALUE_BINS),
                    BinningStrategy::EqualDepth,
                    "per-value".to_string(),
                ),
            };
            let model = FactorJoinModel::train(
                &env.catalog,
                FactorJoinConfig {
                    bin_budget,
                    strategy,
                    estimator: BaseEstimatorKind::TrueScan,
                    seed: 42,
                    threads: 0,
                },
            );
            let mut session = model.subplan_estimator();
            let (mut underestimates, mut worst_ratio) = (0, 1.0f64);
            for (qi, q) in env.queries.iter().enumerate() {
                for (mask, est) in session.estimate_subplans(q, 1) {
                    let truth = env.truth(qi, mask);
                    if est < truth * (1.0 - ROUNDING) {
                        underestimates += 1;
                        worst_ratio = worst_ratio.max(truth / est.max(1e-300));
                    }
                }
            }
            BoundCell {
                bins: label,
                underestimates,
                worst_ratio,
            }
        })
        .collect();
    BoundWorkload {
        workload: env.name().to_string(),
        subplans,
        aliases,
        multi_key_aliases,
        multi_table_subplans,
        multi_key_subplans,
        cells,
    }
}

/// Measures the bound ratchet at `scale` (the recorded one is
/// [`BOUND_SCALE`]): TrueScan models with GBSA at k ∈ {10, 100, 1000} and
/// one bin per value, on the full STATS-CEB and IMDB-JOB workloads, each
/// connected sub-plan against its true cardinality. Deterministic.
pub fn measure_bound(scale: f64) -> BoundSample {
    BoundSample {
        scale,
        workloads: vec![
            measure_bound_workload(BenchKind::StatsCeb, scale),
            measure_bound_workload(BenchKind::ImdbJob, scale),
        ],
    }
}

// ------------------------------------------------------- JSON conversion
// Hand-rolled against `serde_json::Value` (the vendored serde derives are
// no-ops; see vendor/README.md).

fn err(m: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string())
}

fn method_to_json(m: &MethodQuality) -> Value {
    Value::object([
        ("method".to_string(), Value::from(m.method.clone())),
        ("p50_qerror".to_string(), Value::from(m.p50_qerror)),
        ("p95_qerror".to_string(), Value::from(m.p95_qerror)),
        (
            "plan_cost_ratio".to_string(),
            Value::from(m.plan_cost_ratio),
        ),
    ])
}

fn method_from_json(v: &Value) -> std::io::Result<MethodQuality> {
    let f = |k: &str| v[k].as_f64().ok_or_else(|| err(k));
    Ok(MethodQuality {
        method: v["method"]
            .as_str()
            .ok_or_else(|| err("method"))?
            .to_string(),
        p50_qerror: f("p50_qerror")?,
        p95_qerror: f("p95_qerror")?,
        plan_cost_ratio: f("plan_cost_ratio")?,
    })
}

fn template_to_json(t: &TemplateQuality) -> Value {
    Value::object([
        ("template".to_string(), Value::from(t.template.clone())),
        ("queries".to_string(), Value::from(t.queries)),
        (
            "methods".to_string(),
            Value::Array(t.methods.iter().map(method_to_json).collect()),
        ),
    ])
}

fn template_from_json(v: &Value) -> std::io::Result<TemplateQuality> {
    Ok(TemplateQuality {
        template: v["template"]
            .as_str()
            .ok_or_else(|| err("template"))?
            .to_string(),
        queries: v["queries"].as_f64().ok_or_else(|| err("queries"))? as usize,
        methods: v["methods"]
            .as_array()
            .ok_or_else(|| err("methods"))?
            .iter()
            .map(method_from_json)
            .collect::<std::io::Result<_>>()?,
    })
}

fn workload_to_json(w: &WorkloadQuality) -> Value {
    Value::object([
        ("workload".to_string(), Value::from(w.workload.clone())),
        ("queries".to_string(), Value::from(w.queries)),
        ("subplans".to_string(), Value::from(w.subplans)),
        (
            "methods".to_string(),
            Value::Array(w.methods.iter().map(method_to_json).collect()),
        ),
        (
            "templates".to_string(),
            Value::Array(w.templates.iter().map(template_to_json).collect()),
        ),
    ])
}

fn workload_from_json(v: &Value) -> std::io::Result<WorkloadQuality> {
    let f = |k: &str| v[k].as_f64().ok_or_else(|| err(k));
    Ok(WorkloadQuality {
        workload: v["workload"]
            .as_str()
            .ok_or_else(|| err("workload"))?
            .to_string(),
        queries: f("queries")? as usize,
        subplans: f("subplans")? as usize,
        methods: v["methods"]
            .as_array()
            .ok_or_else(|| err("methods"))?
            .iter()
            .map(method_from_json)
            .collect::<std::io::Result<_>>()?,
        // Samples recorded before the per-template breakdown read as
        // having none (the gate then simply has no templates to compare).
        templates: match v["templates"].as_array() {
            None => Vec::new(),
            Some(ts) => ts
                .iter()
                .map(template_from_json)
                .collect::<std::io::Result<_>>()?,
        },
    })
}

fn bound_to_json(b: &BoundSample) -> Value {
    let cell = |c: &BoundCell| {
        Value::object([
            ("bins".to_string(), Value::from(c.bins.clone())),
            ("underestimates".to_string(), Value::from(c.underestimates)),
            ("worst_ratio".to_string(), Value::from(c.worst_ratio)),
        ])
    };
    let workload = |w: &BoundWorkload| {
        Value::object([
            ("workload".to_string(), Value::from(w.workload.clone())),
            ("subplans".to_string(), Value::from(w.subplans)),
            ("aliases".to_string(), Value::from(w.aliases)),
            (
                "multi_key_aliases".to_string(),
                Value::from(w.multi_key_aliases),
            ),
            (
                "multi_table_subplans".to_string(),
                Value::from(w.multi_table_subplans),
            ),
            (
                "multi_key_subplans".to_string(),
                Value::from(w.multi_key_subplans),
            ),
            (
                "cells".to_string(),
                Value::Array(w.cells.iter().map(cell).collect()),
            ),
        ])
    };
    Value::object([
        ("scale".to_string(), Value::from(b.scale)),
        (
            "workloads".to_string(),
            Value::Array(b.workloads.iter().map(workload).collect()),
        ),
    ])
}

fn bound_from_json(v: &Value) -> std::io::Result<BoundSample> {
    let array = |v: &Value, k: &str| v[k].as_array().cloned().ok_or_else(|| err(k));
    let count = |v: &Value, k: &str| v[k].as_f64().map(|x| x as usize).ok_or_else(|| err(k));
    let cell = |c: &Value| -> std::io::Result<BoundCell> {
        Ok(BoundCell {
            bins: c["bins"].as_str().ok_or_else(|| err("bins"))?.to_string(),
            underestimates: count(c, "underestimates")?,
            worst_ratio: c["worst_ratio"]
                .as_f64()
                .ok_or_else(|| err("worst_ratio"))?,
        })
    };
    let workload = |w: &Value| -> std::io::Result<BoundWorkload> {
        Ok(BoundWorkload {
            workload: w["workload"]
                .as_str()
                .ok_or_else(|| err("workload"))?
                .to_string(),
            subplans: count(w, "subplans")?,
            aliases: count(w, "aliases")?,
            multi_key_aliases: count(w, "multi_key_aliases")?,
            multi_table_subplans: count(w, "multi_table_subplans")?,
            multi_key_subplans: count(w, "multi_key_subplans")?,
            cells: array(w, "cells")?
                .iter()
                .map(cell)
                .collect::<std::io::Result<_>>()?,
        })
    };
    Ok(BoundSample {
        scale: v["scale"].as_f64().ok_or_else(|| err("bound scale"))?,
        workloads: array(v, "workloads")?
            .iter()
            .map(workload)
            .collect::<std::io::Result<_>>()?,
    })
}

fn sample_to_json(s: &QualitySample) -> Value {
    let mut fields = vec![
        ("label".to_string(), Value::from(s.label.clone())),
        ("scale".to_string(), Value::from(s.scale)),
        ("bins".to_string(), Value::from(s.bins)),
        (
            "workloads".to_string(),
            Value::Array(s.workloads.iter().map(workload_to_json).collect()),
        ),
    ];
    if let Some(b) = &s.bound {
        fields.push(("bound".to_string(), bound_to_json(b)));
    }
    Value::object(fields)
}

fn sample_from_json(v: &Value) -> std::io::Result<QualitySample> {
    let f = |k: &str| v[k].as_f64().ok_or_else(|| err(k));
    Ok(QualitySample {
        label: v["label"].as_str().ok_or_else(|| err("label"))?.to_string(),
        scale: f("scale")?,
        bins: f("bins")? as usize,
        workloads: v["workloads"]
            .as_array()
            .ok_or_else(|| err("workloads"))?
            .iter()
            .map(workload_from_json)
            .collect::<std::io::Result<_>>()?,
        // Samples recorded before the ratchet have no bound section.
        bound: match &v["bound"] {
            Value::Null => None,
            b => Some(bound_from_json(b)?),
        },
    })
}

/// Reads the history recorded in a `BENCH_quality.json` file.
pub fn read_history(path: &Path) -> std::io::Result<Vec<QualitySample>> {
    let text = std::fs::read_to_string(path)?;
    let v: Value = serde_json::from_str(&text)?;
    v["history"]
        .as_array()
        .ok_or_else(|| err("missing history array"))?
        .iter()
        .map(sample_from_json)
        .collect()
}

/// Appends `sample` to the history in `path` (creating the file if
/// absent), making it the new baseline CI checks against.
pub fn append_sample(path: &Path, sample: &QualitySample) -> std::io::Result<()> {
    let mut history = if path.exists() {
        read_history(path)?
    } else {
        Vec::new()
    };
    history.push(sample.clone());
    let doc = Value::object([
        ("version".to_string(), Value::from(1u32)),
        (
            "pinned".to_string(),
            Value::object([
                ("scale".to_string(), Value::from(PINNED_SCALE)),
                ("bins".to_string(), Value::from(PINNED_BINS)),
                ("queries".to_string(), Value::from(PINNED_QUERIES)),
            ]),
        ),
        (
            "history".to_string(),
            Value::Array(history.iter().map(sample_to_json).collect()),
        ),
    ]);
    let text = format!("{doc}\n");
    std::fs::write(path, text.as_bytes())
}

/// One gated metric compared between baseline and fresh measurement.
#[derive(Debug, Clone)]
pub struct MetricDelta {
    /// Workload the metric belongs to.
    pub workload: String,
    /// Method the metric belongs to.
    pub method: String,
    /// Metric name (`p50_qerror`, `p95_qerror`, `plan_cost_ratio`).
    pub metric: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Fresh value.
    pub fresh: f64,
    /// `fresh / baseline` (>1 = worse).
    pub ratio: f64,
    /// Whether this metric stayed within the tolerance.
    pub ok: bool,
}

/// Outcome of checking a fresh quality sample against the stored baseline.
#[derive(Debug)]
pub struct CheckReport {
    /// Stored baseline (last history entry).
    pub baseline: QualitySample,
    /// Fresh measurement.
    pub fresh: QualitySample,
    /// Every gated metric comparison.
    pub deltas: Vec<MetricDelta>,
    /// Whether all metrics stayed within the tolerance.
    pub ok: bool,
}

/// Compares `fresh` against `baseline` metric by metric. This is the
/// whole gate logic, factored out of the I/O so tests can prove an
/// injected regression fails the check. Every (workload, method) pair of
/// the baseline must be present in the fresh sample; all three metrics
/// are gated at `fresh ≤ threshold × baseline`.
pub fn compare_samples(
    baseline: &QualitySample,
    fresh: &QualitySample,
    threshold: f64,
) -> CheckReport {
    fn compare_methods(
        deltas: &mut Vec<MetricDelta>,
        ok: &mut bool,
        threshold: f64,
        scope: &str,
        base: &[MethodQuality],
        fresh_of: &dyn Fn(&str) -> Option<MethodQuality>,
    ) {
        for bm in base {
            let Some(fm) = fresh_of(&bm.method) else {
                *ok = false;
                continue;
            };
            for (metric, b, f) in [
                ("p50_qerror", bm.p50_qerror, fm.p50_qerror),
                ("p95_qerror", bm.p95_qerror, fm.p95_qerror),
                ("plan_cost_ratio", bm.plan_cost_ratio, fm.plan_cost_ratio),
            ] {
                let ratio = f / b.max(1e-12);
                let within = ratio <= threshold;
                *ok &= within;
                deltas.push(MetricDelta {
                    workload: scope.to_string(),
                    method: bm.method.clone(),
                    metric,
                    baseline: b,
                    fresh: f,
                    ratio,
                    ok: within,
                });
            }
        }
    }
    let mut deltas = Vec::new();
    let mut ok = true;
    for bw in &baseline.workloads {
        let Some(fw) = fresh.workload(&bw.workload) else {
            ok = false;
            continue;
        };
        compare_methods(
            &mut deltas,
            &mut ok,
            threshold,
            &bw.workload,
            &bw.methods,
            &|m| fw.method(m).cloned(),
        );
        // Per-template gates: an aggregate within tolerance can hide one
        // query shape regressing while another improves — each recorded
        // shape is held to the same threshold, and a failure names it.
        for bt in &bw.templates {
            let scope = format!("{}[{}]", bw.workload, bt.template);
            match fw.template(&bt.template) {
                None => ok = false,
                Some(ft) => {
                    compare_methods(&mut deltas, &mut ok, threshold, &scope, &bt.methods, &|m| {
                        ft.method(m).cloned()
                    });
                }
            }
        }
    }
    if let Some(bb) = &baseline.bound {
        compare_bound(&mut deltas, &mut ok, bb, fresh.bound.as_ref());
    }
    CheckReport {
        baseline: baseline.clone(),
        fresh: fresh.clone(),
        deltas,
        ok,
    }
}

/// The ratchet: every recorded cell must be measured again, and no
/// under-estimate count may rise.
fn compare_bound(
    deltas: &mut Vec<MetricDelta>,
    ok: &mut bool,
    baseline: &BoundSample,
    fresh: Option<&BoundSample>,
) {
    for bw in &baseline.workloads {
        let fw = fresh.and_then(|f| f.workloads.iter().find(|w| w.workload == bw.workload));
        for bc in &bw.cells {
            let fc = fw.and_then(|w| w.cells.iter().find(|c| c.bins == bc.bins));
            let Some(fc) = fc else {
                *ok = false;
                continue;
            };
            let (b, f) = (bc.underestimates as f64, fc.underestimates as f64);
            let within = fc.underestimates <= bc.underestimates;
            *ok &= within;
            deltas.push(MetricDelta {
                workload: format!("{}[bound]", bw.workload),
                method: format!("truescan {}", bc.bins),
                metric: "underestimates",
                baseline: b,
                fresh: f,
                ratio: if b > 0.0 {
                    f / b
                } else if f > 0.0 {
                    f64::INFINITY
                } else {
                    1.0
                },
                ok: within,
            });
        }
    }
}

/// Measures a fresh sample at the **baseline's** scale and query count
/// and compares every recorded quality metric, failing on any
/// `fresh > threshold × baseline` — and, when the baseline records the
/// bound ratchet, on any under-estimate count above the recorded one.
///
/// The caller's `queries` (the `--queries` flag) is only a fallback for
/// baselines that recorded no workloads: comparing two measurements taken
/// over different query populations would make the tight deterministic
/// tolerance meaningless, so the check always re-measures what the
/// baseline actually measured.
pub fn check_against(path: &Path, threshold: f64, queries: usize) -> std::io::Result<CheckReport> {
    let history = read_history(path)?;
    let baseline = history
        .last()
        .cloned()
        .ok_or_else(|| err("empty baseline history"))?;
    let queries = baseline
        .workloads
        .first()
        .map(|w| w.queries)
        .unwrap_or(queries);
    let mut fresh = measure("ci-check", baseline.scale, queries);
    fresh.bound = baseline.bound.as_ref().map(|b| measure_bound(b.scale));
    Ok(compare_samples(&baseline, &fresh, threshold))
}

/// Renders one sample for terminal output.
pub fn format_sample(s: &QualitySample) -> String {
    let mut out = format!("{}: scale {}, k={}", s.label, s.scale, s.bins);
    for w in &s.workloads {
        out.push_str(&format!(
            "\n  {} ({} queries, {} join sub-plans):",
            w.workload, w.queries, w.subplans
        ));
        for m in &w.methods {
            out.push_str(&format!(
                "\n    {:<11} q-error p50 {:>8.2} p95 {:>10.2}  plan-cost {:>6.3}× TrueCard",
                m.method, m.p50_qerror, m.p95_qerror, m.plan_cost_ratio
            ));
        }
        if !w.templates.is_empty() {
            out.push_str(&format!(
                "\n    ({} templates recorded; worst factorjoin p95 per shape gated individually)",
                w.templates.len()
            ));
        }
    }
    if let Some(b) = &s.bound {
        out.push_str(&format!(
            "\n  bound ratchet, TrueScan bases, scale {}:",
            b.scale
        ));
        for w in &b.workloads {
            out.push_str(&format!(
                "\n    {} ({} sub-plans; multi-key aliases {} of {}, in {} of {} multi-table sub-plans):",
                w.workload,
                w.subplans,
                w.multi_key_aliases,
                w.aliases,
                w.multi_key_subplans,
                w.multi_table_subplans
            ));
            for c in &w.cells {
                out.push_str(&format!(
                    "\n      {:<10} under-estimates {:>4}, worst ×{:.3}",
                    c.bins, c.underestimates, c.worst_ratio
                ));
            }
        }
    }
    out
}

/// Renders the per-metric verdict lines of a check.
pub fn format_deltas(report: &CheckReport) -> String {
    report
        .deltas
        .iter()
        .map(|d| {
            format!(
                "{} {} {} {:<15} baseline {:>10.3} fresh {:>10.3} ({:.3}×)",
                if d.ok { "ok  " } else { "FAIL" },
                d.workload,
                d.method,
                d.metric,
                d.baseline,
                d.fresh,
                d.ratio
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(p50: f64, p95: f64, cost: f64) -> QualitySample {
        QualitySample {
            label: "t".into(),
            scale: 0.1,
            bins: 100,
            workloads: vec![WorkloadQuality {
                workload: "STATS-CEB".into(),
                queries: 16,
                subplans: 120,
                methods: vec![MethodQuality {
                    method: "factorjoin".into(),
                    p50_qerror: p50,
                    p95_qerror: p95,
                    plan_cost_ratio: cost,
                }],
                templates: vec![TemplateQuality {
                    template: "comments+posts".into(),
                    queries: 4,
                    methods: vec![MethodQuality {
                        method: "factorjoin".into(),
                        p50_qerror: p50,
                        p95_qerror: p95,
                        plan_cost_ratio: cost,
                    }],
                }],
            }],
            bound: None,
        }
    }

    fn with_bound(mut s: QualitySample, counts: [usize; 2]) -> QualitySample {
        let cells = ["k=10", "per-value"]
            .iter()
            .zip(counts)
            .map(|(bins, underestimates)| BoundCell {
                bins: bins.to_string(),
                underestimates,
                worst_ratio: 1.5,
            })
            .collect();
        s.bound = Some(BoundSample {
            scale: 1.0,
            workloads: vec![BoundWorkload {
                workload: "STATS-CEB".into(),
                subplans: 50,
                aliases: 20,
                multi_key_aliases: 3,
                multi_table_subplans: 30,
                multi_key_subplans: 9,
                cells,
            }],
        });
        s
    }

    #[test]
    fn a_rising_under_estimate_count_fails_the_ratchet() {
        let base = with_bound(sample(2.0, 14.0, 1.2), [5, 60]);
        assert!(compare_samples(&base, &base.clone(), DEFAULT_THRESHOLD).ok);
        // Fewer under-estimates pass; one more anywhere fails, naming it.
        let better = with_bound(sample(2.0, 14.0, 1.2), [0, 59]);
        assert!(compare_samples(&base, &better, DEFAULT_THRESHOLD).ok);
        let worse = with_bound(sample(2.0, 14.0, 1.2), [5, 61]);
        let report = compare_samples(&base, &worse, DEFAULT_THRESHOLD);
        assert!(!report.ok);
        let bad: Vec<_> = report.deltas.iter().filter(|d| !d.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].method, "truescan per-value");
        assert_eq!(bad[0].workload, "STATS-CEB[bound]");
        // A fresh sample without the section fails a baseline with one.
        assert!(!compare_samples(&base, &sample(2.0, 14.0, 1.2), DEFAULT_THRESHOLD).ok);
        // The section survives the JSON history.
        let back = sample_from_json(&sample_to_json(&worse)).unwrap();
        assert_eq!(back.bound, worse.bound);
        assert_eq!(
            sample_from_json(&sample_to_json(&base)).unwrap().bound,
            base.bound
        );
    }

    /// The ratchet's measurement end to end on a tiny scale: every cell is
    /// recorded, and the multi-key counts are consistent.
    #[test]
    fn bound_measurement_records_every_cell() {
        let b = measure_bound(0.02);
        assert_eq!(b.workloads.len(), 2);
        for w in &b.workloads {
            assert_eq!(w.cells.len(), BOUND_BINS.len());
            assert!(w.multi_key_aliases <= w.aliases);
            assert!(w.multi_key_subplans <= w.multi_table_subplans);
            assert!(w.multi_table_subplans < w.subplans);
            for c in &w.cells {
                assert!(c.underestimates <= w.subplans);
                assert!(c.worst_ratio >= 1.0);
            }
        }
    }

    #[test]
    fn identical_samples_pass_the_gate() {
        let s = sample(2.0, 14.0, 1.2);
        let report = compare_samples(&s, &s.clone(), DEFAULT_THRESHOLD);
        assert!(report.ok);
        // Three metrics at workload scope + three at template scope.
        assert_eq!(report.deltas.len(), 6);
        assert!(report
            .deltas
            .iter()
            .all(|d| d.ok && (d.ratio - 1.0).abs() < 1e-12));
    }

    #[test]
    fn injected_p95_regression_fails_the_gate() {
        let baseline = sample(2.0, 14.0, 1.2);
        // A code change doubles tail q-error: must fail even though p50
        // and plan cost are unchanged.
        let fresh = sample(2.0, 28.0, 1.2);
        let report = compare_samples(&baseline, &fresh, DEFAULT_THRESHOLD);
        assert!(!report.ok);
        let bad: Vec<_> = report.deltas.iter().filter(|d| !d.ok).collect();
        // The regression shows up at workload scope and on its template.
        assert_eq!(bad.len(), 2);
        assert!(bad.iter().all(|d| d.metric == "p95_qerror"));
        assert!((bad[0].ratio - 2.0).abs() < 1e-12);
        assert!(
            bad.iter()
                .any(|d| d.workload == "STATS-CEB[comments+posts]"),
            "the failing template must be named: {bad:?}"
        );
    }

    #[test]
    fn injected_plan_cost_regression_fails_the_gate() {
        let baseline = sample(2.0, 14.0, 1.1);
        let fresh = sample(2.0, 14.0, 1.5);
        let report = compare_samples(&baseline, &fresh, DEFAULT_THRESHOLD);
        assert!(!report.ok);
        assert!(report
            .deltas
            .iter()
            .any(|d| !d.ok && d.metric == "plan_cost_ratio"));
    }

    #[test]
    fn improvement_and_within_tolerance_pass() {
        let baseline = sample(2.0, 14.0, 1.2);
        let fresh = sample(1.5, 14.5, 1.15); // better p50, p95 within 1.1×
        assert!(compare_samples(&baseline, &fresh, DEFAULT_THRESHOLD).ok);
    }

    #[test]
    fn missing_method_fails_the_gate() {
        let baseline = sample(2.0, 14.0, 1.2);
        let mut fresh = sample(2.0, 14.0, 1.2);
        fresh.workloads[0].methods.clear();
        assert!(!compare_samples(&baseline, &fresh, DEFAULT_THRESHOLD).ok);
    }

    #[test]
    fn missing_template_fails_the_gate() {
        let baseline = sample(2.0, 14.0, 1.2);
        let mut fresh = sample(2.0, 14.0, 1.2);
        fresh.workloads[0].templates.clear();
        assert!(!compare_samples(&baseline, &fresh, DEFAULT_THRESHOLD).ok);
    }

    #[test]
    fn sample_json_roundtrip() {
        let s = sample(2.25, 17.5, 1.31);
        let back = sample_from_json(&sample_to_json(&s)).unwrap();
        assert_eq!(back.label, "t");
        assert_eq!(back.workloads.len(), 1);
        let m = back.workloads[0].method("factorjoin").unwrap();
        assert!((m.p95_qerror - 17.5).abs() < 1e-12);
        assert!((m.plan_cost_ratio - 1.31).abs() < 1e-12);
        assert_eq!(back.workloads[0].subplans, 120);
        let t = back.workloads[0].template("comments+posts").unwrap();
        assert_eq!(t.queries, 4);
        assert!((t.method("factorjoin").unwrap().p50_qerror - 2.25).abs() < 1e-12);
    }

    #[test]
    fn template_only_regression_is_caught_and_named() {
        // The aggregate stays flat while one query shape doubles its tail
        // error — exactly the failure mode the per-template gate exists
        // for. The delta names the shape.
        let baseline = sample(2.0, 14.0, 1.2);
        let mut fresh = sample(2.0, 14.0, 1.2);
        fresh.workloads[0].templates[0].methods[0].p95_qerror *= 2.0;
        let report = compare_samples(&baseline, &fresh, DEFAULT_THRESHOLD);
        assert!(!report.ok);
        let bad: Vec<_> = report.deltas.iter().filter(|d| !d.ok).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].metric, "p95_qerror");
        assert_eq!(bad[0].workload, "STATS-CEB[comments+posts]");
    }

    #[test]
    fn baseline_without_templates_still_gates_aggregates() {
        // Pre-breakdown history entries read as template-free; the gate
        // degrades to the aggregate comparison instead of failing.
        let mut baseline = sample(2.0, 14.0, 1.2);
        baseline.workloads[0].templates.clear();
        let fresh = sample(2.0, 14.0, 1.2);
        let report = compare_samples(&baseline, &fresh, DEFAULT_THRESHOLD);
        assert!(report.ok);
        assert_eq!(report.deltas.len(), 3);
    }

    #[test]
    fn history_roundtrip_and_same_code_check_passes() {
        let dir = std::env::temp_dir().join("fj_quality_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bench.json");
        std::fs::remove_file(&path).ok();
        // Tiny real measurement keeps the flow honest end-to-end; the
        // re-measurement is deterministic, so even threshold 1.0 + ε holds.
        let s = measure("seed", 0.03, 6);
        assert_eq!(s.workloads.len(), 2);
        for w in &s.workloads {
            assert!(w.subplans > 0);
            // STATS records 4 methods (postgres, joinhist, pessest,
            // factorjoin); IMDB drops JoinHist (no LIKE support).
            let expect = if w.workload == "STATS-CEB" { 4 } else { 3 };
            assert_eq!(w.methods.len(), expect, "{}", w.workload);
            assert!(w.method("pessest").is_some());
            assert!(!w.templates.is_empty(), "templates recorded");
            for t in &w.templates {
                assert!(t.queries > 0);
                assert!(t.method("factorjoin").is_some());
            }
        }
        append_sample(&path, &s).unwrap();
        // The check re-measures at the *baseline's* query count — passing a
        // wildly different `--queries` here must not change the comparison
        // population (a count mismatch would make the tight deterministic
        // tolerance meaningless).
        let report = check_against(&path, 1.000001, 9999).unwrap();
        assert!(
            report.ok,
            "deterministic re-measurement drifted:\n{}",
            format_deltas(&report)
        );
        assert_eq!(report.fresh.workloads[0].queries, s.workloads[0].queries);
        std::fs::remove_file(&path).ok();
    }
}
