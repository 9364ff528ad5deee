//! One function per paper table/figure (see DESIGN.md §4 for the index).

use crate::env::{BenchEnv, BenchKind};
use crate::harness::{EndToEnd, MethodResult};
use crate::report::{fmt_bytes, fmt_seconds, percentile, relative_error, Table};
use factorjoin::{
    BaseEstimatorKind, BinBudget, BinningStrategy, FactorJoinConfig, FactorJoinModel, ModelDelta,
};
use fj_baselines::{
    CardEst, FactorJoinEst, JoinHist, JoinHistConfig, PessEst, PostgresLike, TrueCard,
};
use fj_datagen::{stats_catalog_split_by_date, StatsConfig, WorkloadConfig};
use fj_stats::BnConfig;

/// Experiment-wide knobs (scale, query caps) read from the environment.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Data scale factor.
    pub scale: f64,
    /// Optional cap on evaluation queries (None = paper-shaped counts).
    pub queries: Option<usize>,
    /// When set, load the benchmark database from this real-dump directory
    /// (`--dataset-dir` / `FJ_DATASET_DIR`) instead of generating synthetic
    /// data; `scale` is ignored for the data (workloads still adapt to it).
    pub dataset_dir: Option<&'static str>,
}

impl ExpConfig {
    /// Reads `FJ_SCALE` / `FJ_QUERIES` from the environment.
    pub fn from_env() -> Self {
        // Default sized so that simulated execution dominates planning, as
        // in the paper's benchmarks (their queries run seconds-to-hours).
        let scale = std::env::var("FJ_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.5);
        let queries = std::env::var("FJ_QUERIES")
            .ok()
            .and_then(|s| s.parse().ok());
        let dataset_dir = std::env::var("FJ_DATASET_DIR")
            .ok()
            .filter(|s| !s.is_empty())
            .map(|s| &*Box::leak(s.into_boxed_str()));
        ExpConfig {
            scale,
            queries,
            dataset_dir,
        }
    }

    /// Fast settings for tests.
    pub fn quick() -> Self {
        ExpConfig {
            scale: 0.04,
            queries: Some(10),
            dataset_dir: None,
        }
    }
}

/// Builds the benchmark environment an experiment runs against: synthetic
/// data at `cfg.scale`, or — when `cfg.dataset_dir` is set — the real dump
/// loaded from that directory (see `fj_datagen::loader`). Load failures
/// abort the process with the loader's diagnostic; experiments are
/// CLI-facing and cannot proceed without their data.
pub fn bench_env(kind: BenchKind, cfg: ExpConfig) -> BenchEnv {
    match cfg.dataset_dir {
        None => BenchEnv::build(kind, cfg.scale, cfg.queries),
        Some(dir) => BenchEnv::build_loaded(kind, std::path::Path::new(dir), cfg.queries)
            .unwrap_or_else(|e| {
                eprintln!(
                    "error: cannot load {} dump from {dir}: {e}",
                    kind_name(kind)
                );
                std::process::exit(1);
            }),
    }
}

fn kind_name(kind: BenchKind) -> &'static str {
    match kind {
        BenchKind::StatsCeb => "STATS",
        BenchKind::ImdbJob => "IMDB",
    }
}

/// FactorJoin configured as in the paper for each benchmark: BayesNet base
/// estimator on STATS, 1% sampling on IMDB, k=100, GBSA.
pub fn paper_factorjoin(env: &BenchEnv) -> FactorJoinEst {
    let estimator = match env.kind {
        BenchKind::StatsCeb => BaseEstimatorKind::BayesNet(BnConfig::default()),
        BenchKind::ImdbJob => BaseEstimatorKind::Sampling { rate: 0.05 },
    };
    let cfg = FactorJoinConfig {
        bin_budget: BinBudget::Uniform(100),
        strategy: BinningStrategy::Gbsa,
        estimator,
        seed: 42,
        threads: 0,
    };
    FactorJoinEst::new(FactorJoinModel::train(&env.catalog, cfg))
}

/// Table 2: benchmark summary statistics.
pub fn table2(cfg: ExpConfig) {
    let mut t = Table::new(
        "Table 2 — benchmark summary (synthetic stand-ins)",
        &["statistic", "STATS-CEB", "IMDB-JOB"],
    );
    let stats = bench_env(BenchKind::StatsCeb, cfg);
    let imdb = bench_env(BenchKind::ImdbJob, cfg);
    let row_range = |env: &BenchEnv| {
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        for tab in env.catalog.tables() {
            lo = lo.min(tab.nrows());
            hi = hi.max(tab.nrows());
        }
        format!("{lo} — {hi}")
    };
    let card_range = |env: &BenchEnv| {
        let (mut lo, mut hi) = (f64::INFINITY, 0f64);
        for (qi, q) in env.queries.iter().enumerate() {
            let full = (1u64 << q.num_tables()) - 1;
            let c = env.truth(qi, full);
            lo = lo.min(c);
            hi = hi.max(c);
        }
        format!("{lo:.0} — {hi:.0}")
    };
    let subplans = |env: &BenchEnv| {
        let counts: Vec<usize> = (0..env.queries.len())
            .map(|qi| env.truth_map(qi).len())
            .collect();
        let max = counts.iter().copied().max().unwrap_or(0);
        let min = counts.iter().copied().min().unwrap_or(0);
        format!("{min} — {max}")
    };
    for (label, s, i) in [
        (
            "# tables",
            stats.catalog.num_tables().to_string(),
            imdb.catalog.num_tables().to_string(),
        ),
        ("# rows per table", row_range(&stats), row_range(&imdb)),
        (
            "# join keys",
            stats.catalog.join_keys().len().to_string(),
            imdb.catalog.join_keys().len().to_string(),
        ),
        (
            "# key groups",
            stats.catalog.equivalent_key_groups().len().to_string(),
            imdb.catalog.equivalent_key_groups().len().to_string(),
        ),
        (
            "# queries",
            stats.queries.len().to_string(),
            imdb.queries.len().to_string(),
        ),
        ("# sub-plans per query", subplans(&stats), subplans(&imdb)),
        (
            "true cardinality range",
            card_range(&stats),
            card_range(&imdb),
        ),
    ] {
        t.row(vec![label.into(), s, i]);
    }
    t.print();
}

fn print_end_to_end(title: &str, results: &[MethodResult]) {
    let base = results
        .iter()
        .find(|r| r.method == "postgres")
        .expect("postgres baseline present");
    let mut t = Table::new(
        title,
        &[
            "method",
            "end-to-end",
            "exec",
            "plan",
            "improvement",
            "model",
            "train",
        ],
    );
    for r in results {
        t.row(vec![
            r.method.clone(),
            fmt_seconds(r.total_s()),
            fmt_seconds(r.exec_s),
            fmt_seconds(r.planning_s),
            if r.method == "postgres" {
                "–".to_string()
            } else {
                format!("{:+.1}%", r.improvement_over(base) * 100.0)
            },
            fmt_bytes(r.model_bytes),
            fmt_seconds(r.train_s),
        ]);
    }
    t.print();
}

/// Tables 3 / 4 (+ Figure 6 series): end-to-end on one benchmark.
pub fn end_to_end(kind: BenchKind, cfg: ExpConfig) -> Vec<MethodResult> {
    let env = bench_env(kind, cfg);
    let runner = EndToEnd::new(&env);
    let mut results = Vec::new();

    let mut pg = PostgresLike::build(&env.catalog);
    results.push(runner.run(&mut pg));
    {
        let mut oracle = TrueCard::new(&env.catalog);
        let mut zero_runner = EndToEnd::new(&env);
        zero_runner.zero_planning = true;
        results.push(zero_runner.run(&mut oracle));
    }
    if kind == BenchKind::StatsCeb {
        let mut jh = JoinHist::build(&env.catalog, JoinHistConfig::classic(100));
        results.push(runner.run(&mut jh));
    }
    let mut pe = PessEst::new(&env.catalog, 512);
    results.push(runner.run(&mut pe));
    let mut fj = paper_factorjoin(&env);
    results.push(runner.run(&mut fj));

    let table_no = if kind == BenchKind::StatsCeb { 3 } else { 4 };
    print_end_to_end(
        &format!(
            "Table {table_no} — end-to-end performance on {}",
            env.name()
        ),
        &results,
    );
    results
}

/// Figure 6: overall comparison (end-to-end, model size, training time).
pub fn fig6(cfg: ExpConfig) {
    let stats = end_to_end(BenchKind::StatsCeb, cfg);
    let imdb = end_to_end(BenchKind::ImdbJob, cfg);
    let mut t = Table::new(
        "Figure 6 — overall: end-to-end / model size / training time",
        &["method", "e2e STATS", "e2e IMDB", "model", "train"],
    );
    for r in &stats {
        let imdb_r = imdb.iter().find(|x| x.method == r.method);
        t.row(vec![
            r.method.clone(),
            fmt_seconds(r.total_s()),
            imdb_r
                .map(|x| fmt_seconds(x.total_s()))
                .unwrap_or_else(|| "n/s".into()),
            fmt_bytes(r.model_bytes),
            fmt_seconds(r.train_s),
        ]);
    }
    t.print();
}

/// Figure 7: distribution of relative estimation errors over sub-plans.
pub fn fig7(cfg: ExpConfig) {
    let env = bench_env(BenchKind::StatsCeb, cfg);
    let runner = EndToEnd::new(&env);
    let mut t = Table::new(
        "Figure 7 — relative error (estimate / true) percentiles, STATS-CEB sub-plans",
        &[
            "method",
            "p5",
            "p25",
            "p50",
            "p75",
            "p95",
            "p99",
            "% ≥ 1 (upper bound)",
        ],
    );
    let mut methods: Vec<Box<dyn CardEst>> = vec![
        Box::new(PostgresLike::build(&env.catalog)),
        Box::new(PessEst::new(&env.catalog, 512)),
        Box::new(paper_factorjoin(&env)),
    ];
    for m in &mut methods {
        let r = runner.run(m.as_mut());
        // Percentiles over non-empty sub-plans; the upper-bound fraction
        // compares estimate ≥ truth directly (a 0-over-0 bound is exact).
        let rels: Vec<f64> = r
            .est_truth
            .iter()
            .filter(|&&(_, tr)| tr >= 1.0)
            .map(|&(e, tr)| relative_error(e, tr))
            .collect();
        let frac_upper = r
            .est_truth
            .iter()
            .filter(|&&(e, tr)| e >= tr * 0.999)
            .count() as f64
            / r.est_truth.len().max(1) as f64;
        t.row(vec![
            r.method.clone(),
            format!("{:.2}", percentile(&rels, 5.0)),
            format!("{:.2}", percentile(&rels, 25.0)),
            format!("{:.2}", percentile(&rels, 50.0)),
            format!("{:.2}", percentile(&rels, 75.0)),
            format!("{:.1}", percentile(&rels, 95.0)),
            format!("{:.1}", percentile(&rels, 99.0)),
            format!("{:.0}%", frac_upper * 100.0),
        ]);
    }
    t.print();
}

/// Figures 8/10/11: per-query improvement over Postgres, clustered by the
/// Postgres runtime of the query.
pub fn per_query(kind: BenchKind, cfg: ExpConfig) {
    let env = bench_env(kind, cfg);
    let runner = EndToEnd::new(&env);
    let mut pg = PostgresLike::build(&env.catalog);
    let r_pg = runner.run(&mut pg);
    let mut methods: Vec<Box<dyn CardEst>> = vec![
        Box::new(TrueCard::new(&env.catalog)),
        Box::new(PessEst::new(&env.catalog, 512)),
        Box::new(paper_factorjoin(&env)),
    ];
    let fig = match kind {
        BenchKind::StatsCeb => "8/10",
        BenchKind::ImdbJob => "11",
    };
    let mut t = Table::new(
        &format!(
            "Figure {fig} — improvement over Postgres by query runtime cluster ({})",
            env.name()
        ),
        &[
            "method",
            "cluster",
            "queries",
            "pg total",
            "method total",
            "improvement",
        ],
    );
    // Cluster queries into runtime intervals by Postgres end-to-end time.
    let totals_pg: Vec<f64> = r_pg
        .per_query_exec
        .iter()
        .zip(&r_pg.per_query_plan)
        .map(|(e, p)| e + p)
        .collect();
    let mut sorted = totals_pg.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let cuts: Vec<f64> = [0.25, 0.5, 0.75]
        .iter()
        .map(|&q| percentile(&sorted, q * 100.0))
        .collect();
    let cluster_of = |s: f64| cuts.iter().filter(|&&c| s > c).count();
    let names = ["fastest 25%", "25–50%", "50–75%", "slowest 25%"];
    for m in &mut methods {
        let zero = m.name() == "truecard";
        let mut run = EndToEnd::new(&env);
        run.zero_planning = zero;
        let r = run.run(m.as_mut());
        for (c, name) in names.iter().enumerate() {
            let idx: Vec<usize> = (0..env.queries.len())
                .filter(|&i| cluster_of(totals_pg[i]) == c)
                .collect();
            if idx.is_empty() {
                continue;
            }
            let pg_tot: f64 = idx.iter().map(|&i| totals_pg[i]).sum();
            let m_tot: f64 = idx
                .iter()
                .map(|&i| r.per_query_exec[i] + r.per_query_plan[i])
                .sum();
            t.row(vec![
                r.method.clone(),
                (*name).into(),
                idx.len().to_string(),
                fmt_seconds(pg_tot),
                fmt_seconds(m_tot),
                format!("{:+.1}%", (pg_tot - m_tot) / pg_tot * 100.0),
            ]);
        }
    }
    t.print();
}

/// Table 5: incremental update versus retraining on STATS-CEB (§4.3).
pub fn table5(cfg: ExpConfig) {
    // The update experiment needs the generator's date-split (base catalog
    // + later inserts); it cannot run against a loaded dump. Skipping
    // loudly beats printing synthetic numbers a `--dataset-dir` user would
    // attribute to their real data.
    if let Some(dir) = cfg.dataset_dir {
        eprintln!(
            "table5 skipped: the incremental-update experiment requires synthetic \
             date-split generation and cannot honor --dataset-dir {dir}"
        );
        return;
    }
    let stats_cfg = StatsConfig {
        scale: cfg.scale,
        ..Default::default()
    };
    let (mut base, inserts) = stats_catalog_split_by_date(&stats_cfg, 1825);
    // Train on the first half, append the inserts and stage them, then time
    // the incremental update alone (§4.3).
    let fj_cfg = FactorJoinConfig::default();
    let mut fj = FactorJoinModel::train(&base, fj_cfg.clone());
    let mut delta = ModelDelta::new();
    for (tname, rows) in &inserts {
        let table = base.table_mut(tname).expect("table exists");
        let first = table.nrows();
        table.append_rows(rows).expect("valid rows");
        delta.record(table, first);
    }
    let t_inc = std::time::Instant::now();
    fj.apply_insert(&base, &delta);
    let inc_s = t_inc.elapsed().as_secs_f64();
    // The alternative: retrain from scratch on the updated data.
    let t_retrain = std::time::Instant::now();
    let retrained = FactorJoinModel::train(&base, fj_cfg);
    let retrain_s = t_retrain.elapsed().as_secs_f64();

    // End-to-end after update, against the updated data.
    let wl = fj_datagen::stats_ceb_workload(
        &base,
        &WorkloadConfig {
            num_queries: cfg.queries.unwrap_or(146).min(146),
            ..WorkloadConfig::stats_ceb()
        },
    );
    let env = BenchEnv::from_parts(BenchKind::StatsCeb, base, wl);
    let runner = EndToEnd::new(&env);
    let mut pg = PostgresLike::build(&env.catalog);
    let r_pg = runner.run(&mut pg);

    let mut t = Table::new(
        "Table 5 — incremental update performance on STATS-CEB",
        &[
            "method",
            "update time",
            "end-to-end",
            "improvement over postgres",
        ],
    );
    for (label, model, update_s) in [
        ("factorjoin (incremental)", fj, inc_s),
        ("factorjoin (retrain)", retrained, retrain_s),
    ] {
        let r = runner.run(&mut FactorJoinEst::new(model));
        t.row(vec![
            label.into(),
            fmt_seconds(update_s),
            fmt_seconds(r.total_s()),
            format!("{:+.1}%", r.improvement_over(&r_pg) * 100.0),
        ]);
    }
    t.print();
    println!(
        "update speedup: {:.1}x (retrain ÷ incremental)",
        retrain_s / inc_s.max(1e-9)
    );
}

/// Table 6: binning strategy ablation (equal-width / equal-depth / GBSA).
pub fn table6(cfg: ExpConfig) {
    let env = bench_env(BenchKind::StatsCeb, cfg);
    let runner = EndToEnd::new(&env);
    let mut t = Table::new(
        "Table 6 — binning strategies (k = 100, BayesNet base estimator)",
        &[
            "strategy",
            "end-to-end",
            "improvement",
            "rel-err p50",
            "p95",
            "p99",
        ],
    );
    let mut pg = PostgresLike::build(&env.catalog);
    let r_pg = runner.run(&mut pg);
    for (label, strategy) in [
        ("equal-width", BinningStrategy::EqualWidth),
        ("equal-depth", BinningStrategy::EqualDepth),
        ("gbsa", BinningStrategy::Gbsa),
    ] {
        let model = FactorJoinModel::train(
            &env.catalog,
            FactorJoinConfig {
                strategy,
                ..Default::default()
            },
        );
        let mut est = FactorJoinEst::new(model);
        let r = runner.run(&mut est);
        let rels: Vec<f64> = r
            .est_truth
            .iter()
            .map(|&(e, tr)| relative_error(e, tr))
            .collect();
        t.row(vec![
            label.into(),
            fmt_seconds(r.total_s()),
            format!("{:+.1}%", r.improvement_over(&r_pg) * 100.0),
            format!("{:.2}", percentile(&rels, 50.0)),
            format!("{:.1}", percentile(&rels, 95.0)),
            format!("{:.1}", percentile(&rels, 99.0)),
        ]);
    }
    t.print();
}

/// Table 7: single-table estimator ablation (BayesNet / Sampling / TrueScan).
pub fn table7(cfg: ExpConfig) {
    let env = bench_env(BenchKind::StatsCeb, cfg);
    let runner = EndToEnd::new(&env);
    let mut pg = PostgresLike::build(&env.catalog);
    let r_pg = runner.run(&mut pg);
    let mut t = Table::new(
        "Table 7 — FactorJoin with different single-table estimators (k = 100)",
        &["estimator", "end-to-end", "exec", "plan", "improvement"],
    );
    for (label, kind) in [
        ("bayesnet", BaseEstimatorKind::BayesNet(BnConfig::default())),
        ("sampling(5%)", BaseEstimatorKind::Sampling { rate: 0.05 }),
        ("truescan", BaseEstimatorKind::TrueScan),
    ] {
        let model = FactorJoinModel::train(
            &env.catalog,
            FactorJoinConfig {
                estimator: kind,
                ..Default::default()
            },
        );
        let mut est = FactorJoinEst::new(model);
        let r = runner.run(&mut est);
        t.row(vec![
            label.into(),
            fmt_seconds(r.total_s()),
            fmt_seconds(r.exec_s),
            fmt_seconds(r.planning_s),
            format!("{:+.1}%", r.improvement_over(&r_pg) * 100.0),
        ]);
    }
    t.print();
}

/// Table 8: JoinHist + bound / + conditional / + both.
pub fn table8(cfg: ExpConfig) {
    let env = bench_env(BenchKind::StatsCeb, cfg);
    let runner = EndToEnd::new(&env);
    let mut pg = PostgresLike::build(&env.catalog);
    let r_pg = runner.run(&mut pg);
    let mut t = Table::new(
        "Table 8 — removing JoinHist's simplifying assumptions",
        &["variant", "end-to-end", "improvement"],
    );
    for (bound, cond) in [(false, false), (true, false), (false, true), (true, true)] {
        let mut jh = JoinHist::build(
            &env.catalog,
            JoinHistConfig {
                with_bound: bound,
                with_conditional: cond,
                bins: 100,
            },
        );
        let r = runner.run(&mut jh);
        t.row(vec![
            r.method.clone(),
            fmt_seconds(r.total_s()),
            format!("{:+.1}%", r.improvement_over(&r_pg) * 100.0),
        ]);
    }
    t.print();
}

/// Figure 9: number-of-bins ablation — end-to-end time, bound tightness,
/// latency per query, training time, model size for k ∈ {1,10,50,100,200}.
pub fn fig9(cfg: ExpConfig) {
    let env = bench_env(BenchKind::StatsCeb, cfg);
    let runner = EndToEnd::new(&env);
    let mut t = Table::new(
        "Figure 9 — effect of the number of bins k",
        &[
            "k",
            "end-to-end",
            "rel-err p50",
            "p95",
            "p99",
            "latency/query",
            "train",
            "model",
        ],
    );
    for k in [1usize, 10, 50, 100, 200] {
        let model = FactorJoinModel::train(
            &env.catalog,
            FactorJoinConfig {
                bin_budget: BinBudget::Uniform(k),
                ..Default::default()
            },
        );
        let train_s = model.report().train_seconds;
        let bytes = model.model_bytes();
        let mut est = FactorJoinEst::new(model);
        let r = runner.run(&mut est);
        let rels: Vec<f64> = r
            .est_truth
            .iter()
            .map(|&(e, tr)| relative_error(e, tr))
            .collect();
        let lat = r.planning_s / env.queries.len() as f64;
        t.row(vec![
            k.to_string(),
            fmt_seconds(r.total_s()),
            format!("{:.2}", percentile(&rels, 50.0)),
            format!("{:.1}", percentile(&rels, 95.0)),
            format!("{:.1}", percentile(&rels, 99.0)),
            fmt_seconds(lat),
            fmt_seconds(train_s),
            fmt_bytes(bytes),
        ]);
    }
    t.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_table2_runs() {
        table2(ExpConfig::quick());
    }

    #[test]
    fn quick_fig7_runs() {
        fig7(ExpConfig::quick());
    }

    #[test]
    fn quick_table8_runs() {
        table8(ExpConfig::quick());
    }
}
