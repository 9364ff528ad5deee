//! Accuracy acceptance thresholds (first slice of the ROADMAP item):
//! the paper's qualitative claims, encoded as tests so `cargo test`
//! guards estimator *quality*, not just correctness.

use factorjoin::{BaseEstimatorKind, BinBudget, FactorJoinConfig, FactorJoinModel};
use fj_baselines::{CardEst, FactorJoinEst, PostgresLike};
use fj_bench::report::q_error;
use fj_bench::{percentile, BenchEnv, BenchKind};

/// Per-join-sub-plan q-errors of one estimator over the whole workload.
fn qerrors(env: &BenchEnv, est: &mut dyn CardEst) -> Vec<f64> {
    let mut out = Vec::new();
    for (qi, q) in env.queries.iter().enumerate() {
        for (mask, e) in est.estimate_subplans(q, 2) {
            out.push(q_error(e, env.truth(qi, mask)));
        }
    }
    out
}

/// Paper Tables 2/3: FactorJoin's binned-bound estimates beat the
/// Postgres-style independence assumption on join sub-plans. Pinned as a
/// p50 q-error floor on the (deterministic) tiny STATS-CEB workload.
#[test]
fn factorjoin_p50_qerror_beats_postgres_on_stats_ceb() {
    let env = BenchEnv::build(BenchKind::StatsCeb, 0.05, Some(12));
    let model = FactorJoinModel::train(
        &env.catalog,
        FactorJoinConfig {
            bin_budget: BinBudget::Uniform(100),
            estimator: BaseEstimatorKind::TrueScan,
            ..Default::default()
        },
    );
    let mut fj = FactorJoinEst::new(model);
    let mut pg = PostgresLike::build(&env.catalog);

    let fj_q = qerrors(&env, &mut fj);
    let pg_q = qerrors(&env, &mut pg);
    assert_eq!(fj_q.len(), pg_q.len(), "same sub-plans scored");
    assert!(fj_q.len() >= 30, "workload produced enough join sub-plans");

    let fj_p50 = percentile(&fj_q, 50.0);
    let pg_p50 = percentile(&pg_q, 50.0);
    assert!(
        fj_p50 < pg_p50,
        "FactorJoin p50 q-error {fj_p50:.2} must beat PostgresLike {pg_p50:.2}"
    );
}

/// ROADMAP next slice, part 1: the tail must be bounded too. FactorJoin's
/// binned upper bound on the deterministic tiny STATS-CEB workload keeps
/// p95 q-error under a fixed constant (measured 2.49 at this pin; the
/// bound leaves ~2× headroom so only a real regression trips it).
#[test]
fn factorjoin_p95_qerror_bounded_on_stats_ceb() {
    let env = BenchEnv::build(BenchKind::StatsCeb, 0.05, Some(12));
    let model = FactorJoinModel::train(
        &env.catalog,
        FactorJoinConfig {
            bin_budget: BinBudget::Uniform(100),
            estimator: BaseEstimatorKind::TrueScan,
            ..Default::default()
        },
    );
    let mut fj = FactorJoinEst::new(model);
    let fj_q = qerrors(&env, &mut fj);
    assert!(fj_q.len() >= 30, "workload produced enough join sub-plans");
    let p95 = percentile(&fj_q, 95.0);
    assert!(
        p95 < 5.0,
        "FactorJoin p95 q-error {p95:.2} exceeds the 5.0 acceptance bound"
    );
}

/// ROADMAP next slice, part 2: estimates only matter through the plans
/// they produce. The total simulated execution cost of the plans chosen
/// under FactorJoin's estimates must stay within a fixed factor of the
/// cost of TrueCard's plans, both costed with true cardinalities
/// (measured 1.02× at this pin; bound 1.25× — the paper's point is that
/// a sound upper bound preserves plan *ordering* even when absolute
/// estimates are off).
#[test]
fn factorjoin_plan_cost_within_fixed_factor_of_truecard() {
    let env = BenchEnv::build(BenchKind::StatsCeb, 0.05, Some(12));
    let model = FactorJoinModel::train(
        &env.catalog,
        FactorJoinConfig {
            bin_budget: BinBudget::Uniform(100),
            estimator: BaseEstimatorKind::TrueScan,
            ..Default::default()
        },
    );
    let mut fj = FactorJoinEst::new(model);
    let runner = fj_bench::EndToEnd::new(&env);
    let r_fj = runner.run(&mut fj);

    let mut oracle = fj_baselines::TrueCard::new(&env.catalog);
    let mut oracle_runner = fj_bench::EndToEnd::new(&env);
    oracle_runner.zero_planning = true;
    let r_tc = oracle_runner.run(&mut oracle);

    let ratio = r_fj.exec_s / r_tc.exec_s.max(1e-12);
    assert!(
        ratio >= 1.0 - 1e-9,
        "TrueCard plans are optimal under the cost model; ratio {ratio:.4} < 1 means the harness broke"
    );
    assert!(
        ratio < 1.25,
        "FactorJoin plan cost {ratio:.3}x TrueCard exceeds the 1.25x acceptance bound"
    );
}
