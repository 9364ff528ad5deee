//! Drift and allocation guards for single-table inference on the Bayesian
//! network: a pinned checksum over every sub-plan estimate of the STATS
//! workload, and a counting allocator around warm `profile_into` calls.

use factorjoin::{FactorJoinConfig, FactorJoinModel, ModelDelta};
use fj_datagen::{stats_catalog, stats_ceb_workload, StatsConfig, WorkloadConfig};
use fj_query::{CmpOp, FilterExpr, Predicate};
use fj_stats::{BaseTableEstimator, BayesNetEstimator, BnConfig, TableProfile};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts this thread's heap allocations (the test harness runs the two
/// tests of this file on threads of their own).
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a const-initialised thread-local
// `Cell`, so touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` with this `layout`; `new_size` is
        // the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn catalog(scale: f64) -> fj_storage::Catalog {
    stats_catalog(&StatsConfig {
        scale,
        ..Default::default()
    })
}

/// Folds every sub-plan estimate of the paper-shaped STATS-CEB workload
/// (146 queries at the paper seed, default BayesNet model at scale 0.3; for
/// the `updated` arm every third `posts` row inserted again on top) into
/// `(sub-plans, hash of mask and f64::to_bits)`.
fn stats_workload_estimate_bits(updated: bool) -> (usize, u64) {
    let mut cat = catalog(0.3);
    let mut model = FactorJoinModel::train(&cat, FactorJoinConfig::default());
    let workload = stats_ceb_workload(&cat, &WorkloadConfig::stats_ceb());
    if updated {
        let posts = cat.table_mut("posts").expect("stats has posts");
        let first_new_row = posts.nrows();
        let copies: Vec<_> = (0..first_new_row)
            .step_by(3)
            .map(|r| posts.row(r))
            .collect();
        posts.append_rows(&copies).expect("rows of the same table");
        let mut delta = ModelDelta::new();
        delta.record(posts, first_new_row);
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

/// Any change to evidence compilation, the propagation order or the kernel
/// moves some estimate by at least a rounding error and shows here. The
/// values were recorded when spanning-subtree propagation replaced the two
/// passes through the root (which it matches to 2.2e-15 relative over the
/// 123 557 estimates of the benchmark's `direct_stats` pool): a refactor
/// that means to keep the arithmetic must keep them, one that reorders it
/// re-records them next to its own differential.
#[test]
fn stats_workload_estimates_are_pinned() {
    assert_eq!(
        stats_workload_estimate_bits(false),
        (2053, 16098391910679908489),
        "trained model"
    );
    assert_eq!(
        stats_workload_estimate_bits(true),
        (2053, 7149228552172391816),
        "after an insert"
    );
}

/// A warm `profile_into` touches the heap zero times, whatever the request
/// shape: the network's scratch is sized at fit, evidence is multiplied in
/// place, and the caller's `TableProfile` is refilled. (`SamplingEstimator`
/// is not held to this: compiling a filter with a connective boxes its
/// nodes — 2 allocations on the three-conjunct filter below.)
#[test]
fn warm_profiles_do_not_allocate() {
    let cat = catalog(0.1);
    let model = FactorJoinModel::train(&cat, FactorJoinConfig::default());
    let posts = cat.table("posts").expect("stats has posts");
    let bins = model.table_bins("posts").expect("posts has join keys");
    let pred = FilterExpr::pred;
    let score = pred(Predicate::cmp("score", CmpOp::Ge, 5));
    let views = pred(Predicate::between("view_count", 100, 900));
    let either_type = FilterExpr::or(vec![
        pred(Predicate::eq("post_type", 1)),
        pred(Predicate::eq("post_type", 2)),
    ]);
    let filters = [
        ("unfiltered", FilterExpr::True),
        ("one column", score.clone()),
        (
            "several columns",
            FilterExpr::and(vec![score.clone(), views.clone(), either_type]),
        ),
        (
            "cross-column OR",
            FilterExpr::and(vec![FilterExpr::or(vec![score, views.clone()]), views]),
        ),
    ];
    let estimator = BayesNetEstimator::build(posts, bins, BnConfig::default());
    let key_lists = [&["id", "owner_user_id"][..], &["id"], &[]];
    let mut profile = TableProfile::default();
    for keys in key_lists {
        for (_, filter) in &filters {
            estimator.profile_into(filter, keys, &mut profile);
        }
    }
    for (shape, filter) in &filters {
        for keys in key_lists {
            let before = allocations();
            estimator.profile_into(filter, keys, &mut profile);
            assert_eq!(
                allocations() - before,
                0,
                "a warm {shape} profile of {keys:?} allocated"
            );
        }
    }
}
