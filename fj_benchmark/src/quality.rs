//! Estimate quality against the true-cardinality oracle. It runs after
//! the timed phase (the oracle is the slowest thing in the program), on
//! the pinned queries of [`crate::inputs::eval_queries`].

use crate::stats::{median, percentile_or_lower};
use factorjoin::FactorJoinModel;
use fj_exec::TrueCardEngine;
use fj_query::Query;
use fj_storage::Catalog;
use std::time::Instant;

/// Quality over every connected sub-plan of the checked queries.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    pub qerr_p50: f64,
    pub qerr_p95: f64,
    /// Share of sub-plans whose estimate lies below the truth (the paper
    /// promises an upper bound, probabilistically).
    pub underest_frac: f64,
    pub subplans: usize,
    pub oracle_s: f64,
}

/// q-error of an estimate against truth: symmetric, ≥ 1, both sides
/// floored at one row.
pub fn q_error(estimate: f64, truth: f64) -> f64 {
    let (e, t) = (estimate.max(1.0), truth.max(1.0));
    (e / t).max(t / e)
}

pub fn measure(catalog: &Catalog, model: &FactorJoinModel, queries: &[Query]) -> Quality {
    let started = Instant::now();
    let mut qerrs = Vec::new();
    let mut under = 0usize;
    for query in queries {
        let mut oracle = TrueCardEngine::new(catalog, query);
        for (mask, estimate) in model.estimate_subplans(query, 1) {
            let truth = oracle.cardinality(mask);
            qerrs.push(q_error(estimate, truth));
            under += usize::from(estimate < truth);
        }
    }
    Quality {
        qerr_p50: median(&qerrs),
        qerr_p95: percentile_or_lower(&qerrs, 95.0),
        underest_frac: under as f64 / qerrs.len() as f64,
        subplans: qerrs.len(),
        oracle_s: started.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q_error_is_symmetric_and_floored() {
        assert_eq!(q_error(10.0, 100.0), 10.0);
        assert_eq!(q_error(100.0, 10.0), 10.0);
        assert_eq!(q_error(0.0, 0.5), 1.0);
    }
}
