//! [`CardEst`] adapter for the FactorJoin model itself.

use crate::traits::CardEst;
use factorjoin::{EstimationScratch, FactorJoinModel};
use fj_query::{Query, SubplanMask};

/// FactorJoin behind the common baseline interface, using progressive
/// sub-plan estimation (paper §5.2) for the planning path.
///
/// The adapter owns an [`EstimationScratch`] alongside the model, so a
/// workload run reuses all estimation buffers across queries (the
/// scratch-reuse contract of `SubplanEstimator`, without the borrow).
pub struct FactorJoinEst {
    model: FactorJoinModel,
    scratch: EstimationScratch,
}

impl FactorJoinEst {
    /// Wraps a trained model.
    pub fn new(model: FactorJoinModel) -> Self {
        FactorJoinEst {
            model,
            scratch: EstimationScratch::default(),
        }
    }

    /// Access to the wrapped model.
    pub fn model(&self) -> &FactorJoinModel {
        &self.model
    }
}

impl CardEst for FactorJoinEst {
    fn name(&self) -> &'static str {
        "factorjoin"
    }

    fn estimate(&mut self, query: &Query) -> f64 {
        self.model.estimate(query)
    }

    fn estimate_subplans(&mut self, query: &Query, min_size: u32) -> Vec<(SubplanMask, f64)> {
        self.model
            .estimate_subplans_with(&mut self.scratch, query, min_size)
    }

    fn model_bytes(&self) -> usize {
        self.model.model_bytes()
    }

    fn train_seconds(&self) -> f64 {
        self.model.report().train_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use factorjoin::FactorJoinConfig;
    use fj_datagen::{stats_catalog, StatsConfig};
    use fj_query::parse_query;

    #[test]
    fn adapter_delegates() {
        let cat = stats_catalog(&StatsConfig {
            scale: 0.03,
            ..Default::default()
        });
        let model = FactorJoinModel::train(&cat, FactorJoinConfig::default());
        let mut est = FactorJoinEst::new(model);
        let q = parse_query(
            &cat,
            "SELECT COUNT(*) FROM posts p, comments c WHERE p.id = c.post_id;",
        )
        .unwrap();
        let full = est.estimate(&q);
        assert!(full > 0.0);
        let subs = est.estimate_subplans(&q, 1);
        assert_eq!(subs.len(), 3);
        assert!(est.model_bytes() > 0);
        assert!(est.train_seconds() >= 0.0);
        assert_eq!(est.name(), "factorjoin");
    }
}
