//! Incremental-update oracle tests (paper §4.3): a model updated in
//! `O(|delta|)` through [`ModelDelta`]/`apply_insert` must track a model
//! retrained from scratch on the updated data — same statistics where bins
//! froze losslessly, and estimates within the paper's stale-bound
//! tolerance where the frozen binning has drifted.

use factorjoin::{BaseEstimatorKind, BinBudget, FactorJoinConfig, FactorJoinModel, ModelDelta};
use fj_datagen::{stats_catalog_split_by_date, stats_ceb_workload, StatsConfig, WorkloadConfig};
use fj_exec::TrueCardEngine;
use fj_storage::Catalog;

fn truescan(k: usize) -> FactorJoinConfig {
    FactorJoinConfig {
        bin_budget: BinBudget::Uniform(k),
        estimator: BaseEstimatorKind::TrueScan,
        seed: 1,
        threads: 1,
        ..Default::default()
    }
}

/// Base catalog + an applied delta: trains on the pre-split data, appends
/// the post-split inserts, and returns the updated catalog with the delta
/// describing the appended rows.
fn split_and_apply(split_days: i64) -> (Catalog, ModelDelta, FactorJoinModel) {
    let cfg = StatsConfig {
        scale: 0.05,
        ..Default::default()
    };
    let (mut catalog, inserts) = stats_catalog_split_by_date(&cfg, split_days);
    let stale = FactorJoinModel::train(&catalog, truescan(30));
    let mut delta = ModelDelta::new();
    for (tname, rows) in &inserts {
        let first = catalog.table(tname).unwrap().nrows();
        catalog.table_mut(tname).unwrap().append_rows(rows).unwrap();
        delta.record(catalog.table(tname).unwrap(), first);
    }
    (catalog, delta, stale)
}

#[test]
fn delta_records_staged_rows() {
    let (catalog, delta, _) = split_and_apply(1825);
    assert!(!delta.is_empty());
    assert!(delta.rows() > 0);
    let staged: usize = delta
        .entries()
        .map(|(t, first)| catalog.table(t).unwrap().nrows() - first)
        .sum();
    assert_eq!(delta.rows(), staged);
}

/// The oracle: update-then-estimate vs retrain-then-estimate. Bins stay
/// frozen under the update while the retrain re-selects them, so the two
/// bounds differ — but only within the stale-bound tolerance, and the
/// updated bound still upper-bounds the truth like a fresh one.
#[test]
fn update_then_estimate_matches_retrain_then_estimate() {
    // Split at ~90% of the date domain → a ~10% insert batch, the shape
    // the benchmark's `lifecycle` workload measures.
    let (catalog, delta, stale) = split_and_apply(3285);
    let updated = stale.updated_with(&catalog, &delta);
    let retrained = FactorJoinModel::train(&catalog, truescan(30));

    let wl = stats_ceb_workload(&catalog, &WorkloadConfig::tiny(5));
    let mut ratios = Vec::new();
    let mut upper = 0usize;
    let mut total = 0usize;
    let mut s_upd = updated.subplan_estimator();
    let mut s_ret = retrained.subplan_estimator();
    for q in &wl {
        let upd = s_upd.estimate_subplans(q, 1);
        let ret = s_ret.estimate_subplans(q, 1);
        assert_eq!(upd.len(), ret.len());
        let mut eng = TrueCardEngine::new(&catalog, q);
        for (&(m1, e1), &(m2, e2)) in upd.iter().zip(&ret) {
            assert_eq!(m1, m2);
            // Both are estimates of the same sub-plan; 0-vs-0 is exact.
            let ratio = (e1.max(1.0) / e2.max(1.0)).max(e2.max(1.0) / e1.max(1.0));
            ratios.push(ratio);
            total += 1;
            if e1 >= eng.cardinality(m1) * 0.999 {
                upper += 1;
            }
        }
    }
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50 = ratios[ratios.len() / 2];
    let max = *ratios.last().unwrap();
    // Stale-bound tolerance: the frozen bins must stay close to a fresh
    // re-binning — median within 1.5×, worst sub-plan within 5×.
    assert!(p50 <= 1.5, "median update/retrain divergence {p50:.3}");
    assert!(max <= 5.0, "worst update/retrain divergence {max:.3}");
    // And the updated model keeps the upper-bound property (≥ 90% of
    // sub-plans, as the paper's Figure 7 criterion).
    assert!(
        upper as f64 >= total as f64 * 0.9,
        "updated bound lost dominance: {upper}/{total}"
    );
}

/// `updated_with` is a pure function of the stale model: the original
/// serves untouched (its estimates don't move), and applying the same
/// delta in place via `apply_insert` gives the same model as the copy.
#[test]
fn updated_with_leaves_the_original_untouched() {
    let (catalog, delta, stale) = split_and_apply(1825);
    let wl = stats_ceb_workload(&catalog, &WorkloadConfig::tiny(3));
    let before: Vec<_> = wl.iter().map(|q| stale.estimate_subplans(q, 1)).collect();

    let updated = stale.updated_with(&catalog, &delta);
    let after: Vec<_> = wl.iter().map(|q| stale.estimate_subplans(q, 1)).collect();
    assert_eq!(before, after, "stale model must not change");

    let mut in_place = stale.clone();
    in_place.apply_insert(&catalog, &delta);
    for q in &wl {
        assert_eq!(
            in_place.estimate_subplans(q, 1),
            updated.estimate_subplans(q, 1),
            "in-place and copy update must agree"
        );
    }
    assert_eq!(in_place.report().model_bytes, updated.report().model_bytes);
    // The update grew the statistics (new rows, possibly new values).
    assert!(updated.report().model_bytes >= stale.report().model_bytes);
}

/// A cloned model is independent of its source: updating the clone never
/// leaks into the original's estimators (deep copy via `clone_box`).
#[test]
fn clone_is_deep() {
    let (catalog, delta, stale) = split_and_apply(1825);
    let clone = stale.clone();
    let wl = stats_ceb_workload(&catalog, &WorkloadConfig::tiny(2));
    let mut mutated = clone;
    mutated.apply_insert(&catalog, &delta);
    for q in &wl {
        let a = stale.estimate_subplans(q, 1);
        let b = mutated.estimate_subplans(q, 1);
        // At least the full-query estimate must differ after a ~50% insert.
        let (ma, ea) = *a.last().unwrap();
        let (mb, eb) = *b.last().unwrap();
        assert_eq!(ma, mb);
        assert!(
            ea <= eb,
            "inserts can only grow the TrueScan bound: {ea} vs {eb}"
        );
    }
}
