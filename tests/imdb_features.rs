//! Integration tests for the IMDB-JOB-only features: cyclic join
//! templates, self-joins, and `LIKE` string predicates (paper §6.1 notes
//! the learned data-driven baselines cannot run this benchmark; FactorJoin
//! must handle it end to end).

use factorjoin::{BaseEstimatorKind, BinBudget, FactorJoinConfig, FactorJoinModel, ModelDelta};
use fj_datagen::{imdb_catalog, imdb_job_workload, ImdbConfig, WorkloadConfig};
use fj_exec::TrueCardEngine;
use fj_query::parse_query;

fn model_for(cat: &fj_storage::Catalog) -> FactorJoinModel {
    FactorJoinModel::train(
        cat,
        FactorJoinConfig {
            bin_budget: BinBudget::Uniform(60),
            estimator: BaseEstimatorKind::Sampling { rate: 0.25 },
            ..Default::default()
        },
    )
}

#[test]
fn like_predicates_flow_through_the_whole_stack() {
    let cat = imdb_catalog(&ImdbConfig {
        scale: 0.08,
        ..Default::default()
    });
    let model = model_for(&cat);
    let q = parse_query(
        &cat,
        "SELECT COUNT(*) FROM title t, movie_keyword mk \
         WHERE t.id = mk.movie_id AND t.title LIKE '%the%';",
    )
    .expect("valid SQL");
    let est = model.estimate(&q);
    let truth = TrueCardEngine::new(&cat, &q).full_cardinality();
    assert!(truth > 0.0, "common pattern must match something");
    let qerr = (est.max(1.0) / truth).max(truth / est.max(1.0));
    assert!(qerr < 10.0, "LIKE estimate {est} vs truth {truth}");
}

#[test]
fn cyclic_template_with_self_join_estimates() {
    let cat = imdb_catalog(&ImdbConfig {
        scale: 0.08,
        ..Default::default()
    });
    let model = model_for(&cat);
    // Cycle: t1–ml–t2 plus t1–t2 via kind_id; t1/t2 are the same table.
    let q = parse_query(
        &cat,
        "SELECT COUNT(*) FROM title t1, movie_link ml, title t2 \
         WHERE t1.id = ml.movie_id AND t2.id = ml.linked_movie_id \
         AND t1.kind_id = t2.kind_id;",
    )
    .expect("valid SQL");
    let est = model.estimate(&q);
    let truth = TrueCardEngine::new(&cat, &q).full_cardinality();
    assert!(est.is_finite() && est >= 0.0);
    // The cyclic condition prunes: our estimate must reflect that by being
    // far below the acyclic 3-way join's cardinality.
    let acyclic = parse_query(
        &cat,
        "SELECT COUNT(*) FROM title t1, movie_link ml, title t2 \
         WHERE t1.id = ml.movie_id AND t2.id = ml.linked_movie_id;",
    )
    .expect("valid SQL");
    let acyclic_truth = TrueCardEngine::new(&cat, &acyclic).full_cardinality();
    assert!(truth <= acyclic_truth);
    assert!(
        est <= acyclic_truth * 20.0,
        "cyclic estimate {est} should not explode past acyclic truth {acyclic_truth}"
    );
}

#[test]
fn generated_job_workload_estimates_end_to_end() {
    let cat = imdb_catalog(&ImdbConfig {
        scale: 0.08,
        ..Default::default()
    });
    let model = model_for(&cat);
    let wl = imdb_job_workload(
        &cat,
        &WorkloadConfig {
            num_queries: 10,
            num_templates: 6,
            allow_cyclic: true,
            allow_like: true,
            ..WorkloadConfig::tiny(4)
        },
    );
    assert_eq!(wl.len(), 10);
    for q in &wl {
        for (mask, est) in model.estimate_subplans(q, 1) {
            assert!(
                est.is_finite() && est >= 0.0,
                "query {} mask {mask:b} → {est}",
                q.to_sql(&cat)
            );
        }
    }
}

#[test]
fn dimension_joins_estimate_close_to_truth() {
    // Key-group joins through tiny dimension tables (kind_type etc.) are a
    // stress test for binning: domains of size ≤ 113.
    let cat = imdb_catalog(&ImdbConfig {
        scale: 0.08,
        ..Default::default()
    });
    let model = model_for(&cat);
    let q = parse_query(
        &cat,
        "SELECT COUNT(*) FROM title t, kind_type kt WHERE kt.id = t.kind_id;",
    )
    .expect("valid SQL");
    let est = model.estimate(&q);
    let truth = TrueCardEngine::new(&cat, &q).full_cardinality();
    // Unfiltered FK→PK join: |title| exactly; estimates should be close.
    let qerr = (est.max(1.0) / truth).max(truth / est.max(1.0));
    assert!(qerr < 3.0, "dimension join est {est} vs truth {truth}");
}

/// Folds every sub-plan estimate of the paper-shaped IMDB-JOB workload
/// (113 queries at the paper seed, 10% sampling, an insert on top for the
/// `updated` arm) into `(sub-plans, hash of f64::to_bits)`.
fn job_workload_estimate_bits(updated: bool) -> (usize, u64) {
    let mut cat = imdb_catalog(&ImdbConfig {
        scale: 0.3,
        ..Default::default()
    });
    let mut model = FactorJoinModel::train(
        &cat,
        FactorJoinConfig {
            estimator: BaseEstimatorKind::Sampling { rate: 0.1 },
            ..Default::default()
        },
    );
    let workload = imdb_job_workload(&cat, &WorkloadConfig::imdb_job());
    if updated {
        let title = cat.table_mut("title").expect("imdb has title");
        let first_new_row = title.nrows();
        let copies: Vec<_> = (0..first_new_row)
            .step_by(3)
            .map(|r| title.row(r))
            .collect();
        title.append_rows(&copies).expect("rows of the same table");
        let mut delta = ModelDelta::new();
        delta.record(title, first_new_row);
        model.apply_insert(&cat, &delta);
    }
    let mut hash = fj_query::StableHasher::new(0);
    let mut subplans = 0;
    for query in &workload {
        for (mask, estimate) in model.estimate_subplans(query, 1) {
            hash.write_u64(mask);
            hash.write_u64(estimate.to_bits());
            subplans += 1;
        }
    }
    (subplans, hash.finish())
}

/// Single-table inference on the sample is an implementation detail: the
/// estimates below were recorded at the commit before the bulk
/// (bitmap/compiled-`LIKE`/cached-histogram) scan replaced the per-row
/// interpreter, and must stay identical to the last bit — also after an
/// incremental insert, which extends the cached histograms in place.
#[test]
fn job_workload_estimates_are_bit_identical_to_the_row_at_a_time_scan() {
    assert_eq!(
        job_workload_estimate_bits(false),
        (2768, 2474582623671526511)
    );
    assert_eq!(
        job_workload_estimate_bits(true),
        (2768, 3279244187497613363)
    );
}
